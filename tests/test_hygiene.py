"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import speechsr

PACKAGE = Path(speechsr.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
