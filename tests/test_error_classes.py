"""One exception class per way a caller handles an error.

BiphotonError is what every engine failure raises, with a message naming
what failed.  Any other class in ``errors.py`` exists only because some
``except`` clause under ``src/biphoton`` catches it by name; a class that
no caller catches adds a name and no behaviour.  Both files are parsed
with ``ast``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biphoton"


def caught_names(tree: ast.Module) -> set:
    """Every name an ``except`` clause of ``tree`` catches, bare or as an
    attribute, alone or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for sub in ast.walk(node.type):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
    return names


def test_every_error_class_but_the_base_is_caught_by_name():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "BiphotonError" in classes
    caught = set()
    for path in PACKAGE.glob("*.py"):
        caught |= caught_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(classes - {"BiphotonError"} - caught) == []


def test_detects_each_form():
    source = ("try:\n    pass\nexcept A:\n    pass\nexcept (B, errors.C) as exc:\n    pass\n"
              "except:\n    pass\n")
    assert caught_names(ast.parse(source)) == {"A", "B", "errors", "C"}
