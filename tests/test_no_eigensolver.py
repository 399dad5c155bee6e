"""No package module calls a numpy eigensolver.

Every quantity the engines read is a sum over amplitudes or weights, and a
partially coherent source is to be built from its analytic modes, so an
O(N^3) eigendecomposition has no place in the package.  Each module under
``src/biphoton`` is parsed with ``ast``; a reference to ``eig``, ``eigh``,
``eigvals`` or ``eigvalsh``, as an attribute (``np.linalg.eigh``), an
imported name or a bare name, fails.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "biphoton"

EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def name_uses(tree: ast.Module, names: set) -> list:
    """(line, name) of each reference to one of ``names``: an attribute, a
    bare name or a name imported from a module."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            uses.extend((node.lineno, a.name) for a in node.names if a.name in names)
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_eigensolver_call(path):
    assert name_uses(ast.parse((PACKAGE / path).read_text()), EIGENSOLVERS) == []


def test_detects_each_form():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n"
              "np.linalg.eigvalsh(m)\neigh(m)\nnp.linalg.eig(m)\n")
    assert name_uses(ast.parse(source), EIGENSOLVERS) == [
        (2, "eigh"), (3, "eigvalsh"), (4, "eigh"), (5, "eig")]
