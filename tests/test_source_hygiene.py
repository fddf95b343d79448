"""Source hygiene of src/slcnn: no unused import and no dead private name.

Both checks read the source with ast and import nothing.  An import must be
used in the scope that makes it: the module for a top-level import, the
function for one inside a function.  A module-level private name (a def, a
class or an assignment whose name starts with one underscore) must be read
somewhere in src/ apart from where it is bound.  Public names are exempt:
code outside src/ (the benchmark's scripts, the tests) may call them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "slcnn"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(SRC.glob("*.py"))}


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _read_names(tree: ast.AST) -> set[str]:
    """Every name *tree* reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree: ast.Module) -> list[tuple[ast.AST, ast.Import | ast.ImportFrom]]:
    """(scope, import) pairs: the module for a top-level import, else the
    innermost function around it."""
    found = []

    def visit(scope: ast.AST, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((scope, child))
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            visit(inner, child)

    visit(tree, tree)
    return found


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    unused = []
    for scope, node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = _read_names(scope)
        unused += [f"{module}:{node.lineno}: {name}"
                   for name in _bound_names(node) if name not in read]
    assert not unused


def _private_module_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in names
            if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_read():
    read = set().union(*(_read_names(tree) for tree in MODULES.values()))
    dead = [f"{module}:{line}: {name}" for module, tree in MODULES.items()
            for name, line in _private_module_names(tree) if name not in read]
    assert not dead


def test_the_checks_see_a_dead_name_and_an_unused_import():
    tree = ast.parse("import os\nfrom . import fileio\n_DEAD = 1\n\n"
                     "def f():\n    import json\n    return fileio\n")
    imports = [(scope, name) for scope, node in _imports(tree) for name in _bound_names(node)]
    assert [name for scope, name in imports if name not in _read_names(scope)] == ["os", "json"]
    assert [name for name, _ in _private_module_names(tree)
            if name not in _read_names(tree)] == ["_DEAD"]
