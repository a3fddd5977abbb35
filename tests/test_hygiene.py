"""Source hygiene: every file parses as Python 3.10, no module-level import goes unused."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ordo").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
