"""The benchmark's use of the package, checked on every supported Python.

``perfbench/checks.py`` loads a config with ``cli.load_config`` and unpacks
the four values of ``cli.build_problem`` to build its closed-form reference
for pumps of no definite parity; ``perfbench/cold_start.py`` times both
calls in a fresh interpreter.  A change to either call that breaks the
benchmark fails here.  The benchmark's modules are imported, never patched.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

import biphoton as bp
from biphoton import cli, modesim

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO))
        yield (importlib.import_module("perfbench.checks"),
               importlib.import_module("perfbench.cold_start"))


def mzim_config(tmp_path, case):
    if case == "bundled":
        return cli.bundled_config_path("default_mzim")
    cfg = json.loads(cli.bundled_config_path("default_mzim").read_text())
    cfg["pump"]["spatial_profile"] = {"kind": "shifted_gaussian", "waist_mm": 1.0,
                                      "shift_mm": 0.4}
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("case", ["bundled", "shifted_gaussian"])
def test_reference_matches_the_oracle(perfbench, tmp_path, case):
    checks, _ = perfbench
    path = mzim_config(tmp_path, case)
    tau, reference = checks._reference(path)
    run = cli.load_config(path)
    gram = modesim.oracle_scan(run.state, run.instrument, run.tau_start, run.tau_stop,
                               run.tau_step)
    assert np.array_equal(gram.tau, tau)
    oracle = np.vstack([gram.singles_port1, gram.singles_port2, gram.coincidences])
    assert reference.shape == oracle.shape
    assert float(np.max(np.abs(oracle - reference))) <= checks.RESIDUAL_GATE


def test_cold_start_reports_each_step(perfbench, capsys):
    _, cold_start = perfbench
    cold_start.main(str(cli.bundled_config_path("default_mzi")))
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"biphoton_file", "import_s", "load_config_s", "build_problem_s"}
    assert report["biphoton_file"] == bp.__file__
    for key in ("import_s", "load_config_s", "build_problem_s"):
        assert report[key] >= 0.0
