"""The benchmark's span tracer patches package functions by name.

``perfbench/spans.py`` swaps each (owner, attribute) of ``_targets()`` for a
timing wrapper during a traced run, so a rename in the package breaks the
traced benchmark.  This test resolves every name without patching any.
"""

import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO))
        yield importlib.import_module("perfbench.spans")


def test_every_traced_name_resolves(spans):
    targets = spans._targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for _name, owners, _note in targets
               for owner, attr in owners if not hasattr(owner, attr)]
    assert missing == []

