"""Static checks of the package source with ast, so they need no linter.

Every name a library module imports is used in that module (__init__.py
is skipped: its imports are the package's re-exports), every private
module-level function is referenced somewhere in the package beyond its
definition, and spectile.__all__ lists exactly the names __init__.py
imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spectile"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreferenced_private_functions(sources: list[str]) -> list[str]:
    """Private module-level functions that no name or attribute in any of
    the sources refers to; a def or an import alone is not a reference."""
    trees = [ast.parse(source) for source in sources]
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(private - referenced)


def test_checker_flags_an_unused_import():
    source = "import os\nimport os.path\nfrom a import b as c\nfrom . import d\nc(d)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unreferenced_private_function():
    lib = "def _called():\n    pass\ndef _attr():\n    pass\ndef _dead():\n    pass\n"
    user = "from lib import _called, _dead\nimport lib\n_called()\nlib._attr()\n"
    assert unreferenced_private_functions([lib, user]) == ["_dead"]


def test_every_private_function_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_functions(sources) == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    assert len(exported) == len(set(exported))
    assert set(exported) == set(imported)
