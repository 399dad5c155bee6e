"""No package module imports a name it neither uses nor exports.

An import left behind when its last use goes (a typing alias, an error
class) reads as a dependency that is not there.  Each module under
``src/biphoton`` except ``__init__.py`` is parsed with ``ast``; every name
it binds by an import must be read somewhere in the module or listed in its
``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biphoton"

# Imported only so that perfbench/spans.py can trace them on this module;
# tests/test_traced_names.py checks that they resolve.
ALLOWED = {
    "interferometer.py": {"flip_overlap", "pump_parity_overlap", "reduced_spatial_operator"},
}


def _imported_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_import_only_names(path):
    tree = ast.parse((PACKAGE / path).read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = _imported_names(tree) - read - _exported_names(tree) - ALLOWED.get(path, set())
    assert sorted(unused) == []
