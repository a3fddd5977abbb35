"""Source hygiene: every file parses as Python 3.10, no module-level
import goes unused, every name a package module exports exists, and no
private module-level name in the package goes unreferenced."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ordo").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    # bound name -> line, for the import statements of the module body
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree).items() if name not in used
    )
    assert not unused, f"unused imports: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    """The package says `requires-python = ">=3.10"`: no file may use
    syntax a 3.10 parser refuses (`except*`, PEP 695 type parameters,
    ...).  Syntax only: a stdlib function or a regex feature that 3.10
    lacks is not caught here."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_exported_name_exists(path):
    """_used_names counts each __all__ entry as used, so a stale entry
    passes the import check; a star import, or a tool that reads every
    exported name, would fail on it."""
    # importing every module also binds the package's submodule names
    modules = [
        importlib.import_module("ordo" if p.stem == "__init__" else f"ordo.{p.stem}")
        for p in PACKAGE
    ]
    module = modules[PACKAGE.index(path)]
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"{module.__name__}.__all__ names what it lacks: {', '.join(missing)}"


def _private_definitions(tree: ast.Module, registrars: set[str]) -> dict[str, int]:
    """Private name -> line, for the functions, classes and assignments of
    the module body; a function decorated by one of the registrars is
    reached through its registry, not by name, and is left out."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id in registrars for d in decorators):
                names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {
        name: line
        for name, line in names.items()
        if name.startswith("_") and not name.startswith("__")
    }


def _references(tree: ast.Module) -> set[str]:
    """The names read in the module, by name or as an attribute, each
    outside its own definition: a function that only calls itself is
    not referenced."""
    found = set()
    for node in tree.body:
        read = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        }
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            read.discard(node.name)
        found |= read
    return found


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE}
    # a package function used as a decorator, such as the report's _entry
    registrars = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    referenced = set().union(*map(_references, trees.values()))
    unreferenced = sorted(
        f"{file}: {name} (line {line})"
        for file, tree in trees.items()
        for name, line in _private_definitions(tree, registrars).items()
        if name not in referenced
    )
    assert not unreferenced, f"private names nothing refers to: {', '.join(unreferenced)}"
