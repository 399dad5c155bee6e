"""The discrete-mode engine reads no closed form.

Agreement between the two engines is the package's self-check only while
the simulator builds its states without the closed engine's answers.  So
``modesim.py`` is parsed with ``ast``, and a reference to
``exchange_overlaps`` or to the closed engine's sector table ``_SECTORS``,
as an attribute (``states._SECTORS``), an imported name or a bare name,
fails.  Each sector kind reaches the simulator through its own table,
``modesim._FACTORS``.
"""

import ast

from biphoton import states

from test_no_eigensolver import PACKAGE, name_uses

CLOSED_FORMS = {"exchange_overlaps", "_SECTORS"}


def test_modesim_reads_no_closed_form():
    assert name_uses(ast.parse((PACKAGE / "modesim.py").read_text()), CLOSED_FORMS) == []


def test_the_names_are_the_closed_engines():
    # a renamed table would make the check above pass on anything
    assert [name for name in sorted(CLOSED_FORMS) if not hasattr(states, name)] == []
