"""Static checks of the package source with ast, so they need no linter.

Every name a library module imports is used in that module (__init__.py
is skipped: its imports are the package's re-exports), every private
module-level function or constant and every private method is read
somewhere in the package beyond its definition, and spectile.__all__
lists exactly the names __init__.py imports.
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


def private_definitions(tree: ast.Module) -> set[str]:
    """Private (one leading underscore) module-level functions and
    constants, and private methods of module-level classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def unreferenced_private_names(sources: list[str]) -> list[str]:
    """Private definitions that no name or attribute read in any of the
    sources refers to; a def, an assignment or an import alone is not a
    reference."""
    trees = [ast.parse(source) for source in sources]
    private = set().union(*map(private_definitions, trees))
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
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
    assert unreferenced_private_names([lib, user]) == ["_dead"]


def test_checker_flags_an_unreferenced_private_method_or_constant():
    lib = (
        "_USED = 1\n_DEAD: int = 2\n__all__ = []\n"
        "class C:\n"
        "    def __init__(self):\n        self._dead_method = _USED\n"
        "    def _called(self):\n        pass\n"
        "    def _dead_method(self):\n        pass\n"
    )
    user = "from lib import C, _DEAD\nC()._called()\n"
    assert unreferenced_private_names([lib, user]) == ["_DEAD", "_dead_method"]


def test_every_private_function_is_referenced():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(sources) == []


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
