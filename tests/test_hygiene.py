"""Source hygiene: every name a module imports is used in that module.

Covers the package, the tests and the benchmark scripts.
"""

import ast
from pathlib import Path

import pytest

import speechsr

PACKAGE = Path(speechsr.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


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


def _ident(path: Path) -> str:
    return str(path.relative_to(PACKAGE if path.is_relative_to(PACKAGE) else ROOT))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_ident)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
