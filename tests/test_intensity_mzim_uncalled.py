"""No package module calls ``intensity_mzim``.

The package reads every closed-form rate from ``rates``; ``intensity_mzim``
is kept only for a caller outside it, so deleting the wrapper touches its
definition and the ``biphoton`` export alone.  Each module under
``src/biphoton`` is parsed with ``ast``; a reference to the name, as an
attribute, a bare name or an imported name, fails, except the import in
``biphoton/__init__.py`` that exports it.
"""

import ast

import pytest

from test_no_eigensolver import PACKAGE, name_uses

WRAPPER = {"intensity_mzim"}


def uses_outside_export(source: str, filename: str) -> list:
    """(line, name) of each reference to the wrapper, less the export."""
    tree = ast.parse(source)
    uses = name_uses(tree, WRAPPER)
    if filename == "__init__.py":
        export = {(node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "interferometer"
                  for alias in node.names}
        uses = [use for use in uses if use not in export]
    return uses


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_calls_the_wrapper(path):
    assert uses_outside_export((PACKAGE / path).read_text(), path) == []


def test_detects_each_form():
    source = ("from .interferometer import intensity_mzim\n"
              "import biphoton as bp\n"
              "intensity_mzim(state, cfg, tau)\nbp.intensity_mzim(state, cfg, tau)\n")
    assert uses_outside_export(source, "cli.py") == [
        (1, "intensity_mzim"), (3, "intensity_mzim"), (4, "intensity_mzim")]
    assert uses_outside_export(source, "__init__.py") == [
        (3, "intensity_mzim"), (4, "intensity_mzim")]
