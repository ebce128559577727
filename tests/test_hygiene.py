"""Source hygiene: no unused imports, no engine op that nothing calls, no
package definition that nothing references and no default, of a parameter
or of a config field, that no call overrides.

Imports are checked in the package, the tests and the benchmark scripts;
engine ops must be called from the package or the acceptance test, and
the package's module-level functions and classes referenced, their
defaulted parameters passed, and the defaulted fields of the ``RunSpec``
sections named by keyword, from the package, the benchmark scripts or the
acceptance test.
"""

import ast
import math
import sys
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

import speechsr
from speechsr.config import RunSpec
from speechsr.engine import ops

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


def _called_names(tree: ast.Module, skip_own_defs: bool) -> set[str]:
    """Names called as ``ops.<name>(...)`` or ``<name>(...)``.

    With ``skip_own_defs`` (for ``engine/ops.py``) a call inside the
    top-level def of the same name is a self-call, not a call site.
    """
    called = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Call):
            fn = node.func
            name = None
            if isinstance(fn, ast.Name):
                name = fn.id
            elif (isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name)
                    and fn.value.id == "ops"):
                name = fn.attr
            if name is not None and name != enclosing:
                called.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for node in tree.body:
        own = node.name if skip_own_defs and isinstance(node, ast.FunctionDef) else None
        visit(node, own)
    return called


def test_every_op_is_called():
    """Each public function of ``engine.ops`` has a call site outside its own definition,
    in the package or in ``tests/test_acceptance.py`` (whose gradient check needs
    ``tanh``); an op that only its own unit tests call is dead code.

    Only ``ast.Call`` nodes count, so a name in a docstring or comment is no
    call. A method of the same name elsewhere (``Tensor.reshape`` calling
    ``ops.reshape``) is a call site.
    """
    names = {name for name, fn in vars(ops).items()
             if callable(fn) and not name.startswith("_")
             and getattr(fn, "__module__", None) == ops.__name__}
    ops_path = Path(ops.__file__).resolve()
    paths = sorted(PACKAGE.rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    called = set().union(*(_called_names(ast.parse(p.read_text()), p.resolve() == ops_path)
                           for p in paths))
    assert sorted(names - called) == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(tree: ast.Module, skip_own_defs: bool) -> set[str]:
    """Names read as ``<name>``, ``<anything>.<name>`` or imported as ``<name>``.

    With ``skip_own_defs`` (for the package's modules) a reference inside
    the top-level def or class of the same name is no reference to it.
    """
    referenced = set()
    for top in tree.body:
        own = top.name if skip_own_defs and isinstance(top, DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            if name != own:
                referenced.add(name)
    return referenced


def test_every_definition_is_referenced():
    """Each module-level function and class of the package is referenced
    outside its own definition, from the package, the benchmark scripts or
    ``tests/test_acceptance.py`` (whose criterion 1 calls ``dsp.istft``): a
    definition that only its own unit tests reach is dead code.

    Names, attributes and import aliases count, so a function handed over by
    name (``os.register_at_fork(after_in_child=_forget_pool)``) is referenced;
    a name in a docstring or comment is not.
    """
    package = sorted(PACKAGE.rglob("*.py"))
    readers = (package + sorted((ROOT / "bench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    trees = {p: ast.parse(p.read_text()) for p in readers}
    defined = {p: {node.name for node in trees[p].body if isinstance(node, DEFS)} for p in package}
    referenced = set().union(*(_referenced_names(tree, p in defined) for p, tree in trees.items()))
    unreferenced = [f"{_ident(p)}::{name}" for p in package
                    for name in sorted(defined[p] - referenced)]
    assert unreferenced == []


def _defaulted(tree: ast.Module):
    """``(owner, name, [(param, position)])`` for each top-level function and
    each method of a top-level class with defaulted parameters; ``position``
    is the parameter's index among a call's positional arguments (``self``
    and ``cls`` are not passed), or None if it is keyword-only."""
    found = []
    for top in tree.body:
        owner, defs = (top.name, top.body) if isinstance(top, ast.ClassDef) else (None, [top])
        for fn in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            shift = 0 if owner is None else 1
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - shift) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                found.append((owner, fn.name, params))
    return found


def _passed(tree: ast.Module, bases: dict[str, list[str]]):
    """The calls in ``tree``, as ``(callee, positional count, keywords, has **)``,
    and the names it reads without a call. ``callee`` is the called name (a
    class name stands for its ``__init__``), or for ``super().__init__`` in a
    class each of the class's bases; a ``*`` splat passes every position."""
    calls, funcs, names = [], set(), set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            funcs.add(id(fn))
            callees = []
            if isinstance(fn, ast.Name):
                callees = [fn.id]
            elif isinstance(fn, ast.Attribute):
                callees = [fn.attr]
                if (fn.attr == "__init__" and isinstance(fn.value, ast.Call)
                        and isinstance(fn.value.func, ast.Name) and fn.value.func.id == "super"):
                    callees = bases.get(cls, [])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            calls.extend((callee, count, keywords, None in keywords) for callee in callees)
        elif isinstance(node, ast.Name) and id(node) not in funcs:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and id(node) not in funcs:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return calls, names


# Tests drive the CLI through ``main(argv)``; the console script passes nothing.
DEFAULT_EXEMPT = {"cli.py::main.argv"}

SECTIONS = [cls for cls in get_type_hints(RunSpec).values() if is_dataclass(cls)]


def _builders(tree: ast.Module) -> dict[str, tuple[str, set[str]]]:
    """The top-level functions that take ``**overrides`` and call a ``RunSpec``
    section with a ``**`` splat: ``{name: (section, keys of their dict(...) calls)}``."""
    names = {cls.__name__ for cls in SECTIONS}
    found = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.args.kwarg is None:
            continue
        calls = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
        keys = {k.arg for call in calls if call.func.id == "dict"
                for k in call.keywords if k.arg is not None}
        for call in calls:
            if call.func.id in names and any(k.arg is None for k in call.keywords):
                found[fn.name] = (call.func.id, keys)
    return found


def _unset_fields(package_trees, calls) -> list[str]:
    """The defaulted fields of the ``RunSpec`` sections that no call names by
    keyword, to the section or to a builder that forwards ``**overrides`` into
    it (whose own ``dict(...)`` keys count as named). A ``**`` splat, as
    ``from_dict`` makes, names no field."""
    builders = {}
    for tree in package_trees:
        builders.update(_builders(tree))
    named = {cls.__name__: set() for cls in SECTIONS}
    for section, keys in builders.values():
        named[section] |= keys
    for callee, _, keywords, _ in calls:
        section = builders[callee][0] if callee in builders else callee
        if section in named:
            named[section] |= keywords - {None}
    return [f"{_ident(Path(sys.modules[cls.__module__].__file__))}::{cls.__name__}.{f.name}"
            for cls in SECTIONS for f in fields(cls)
            if f.default is not MISSING and f.name not in named[cls.__name__]]


def test_every_default_is_overridden():
    """Each defaulted parameter of a package function, method or
    ``__init__`` is passed by some call in the package, the benchmark
    scripts or ``tests/test_acceptance.py``: by keyword, by position or
    through a ``*``/``**`` splat. A default that no call overrides is a
    setting with one value in use, and belongs in the code as a constant.

    Calls are matched by name: ``f(...)`` and ``x.f(...)`` pass to every
    function and method named ``f``, ``C(...)`` to ``C.__init__``, and
    ``super().__init__(...)`` to the ``__init__`` of the class's bases. A
    function or method read without a call (a callback such as ``_serve``)
    may be called with anything, so it counts as passing every parameter.

    A defaulted field of a ``RunSpec`` section (``TrainConfig``,
    ``NoiseSchedule``, ``ArcnConfig``, ``DparnConfig``) counts as a defaulted
    parameter, passed only where a call names it by keyword (see
    :func:`_unset_fields`): config files and checkpoints reach every field
    through ``from_dict``'s splat, so the splat proves no use.
    """
    package = sorted(PACKAGE.rglob("*.py"))
    readers = (package + sorted((ROOT / "bench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    trees = {p: ast.parse(p.read_text()) for p in readers}
    bases = {node.name: [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    calls, read = [], set()
    for tree in trees.values():
        tree_calls, tree_names = _passed(tree, bases)
        calls += tree_calls
        read |= tree_names
    unset = []
    for p in package:
        for owner, fn, params in _defaulted(trees[p]):
            if fn != "__init__" and fn in read:
                continue
            callee = owner if fn == "__init__" else fn
            for name, position in params:
                ident = f"{_ident(p)}::{owner + '.' if owner else ''}{fn}.{name}"
                if ident not in DEFAULT_EXEMPT and not any(
                        c == callee and (name in keywords or splat
                                         or (position is not None and position < count))
                        for c, count, keywords, splat in calls):
                    unset.append(ident)
    unset += _unset_fields([trees[p] for p in package], calls)
    assert unset == []
