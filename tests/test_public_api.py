"""The public surface: export lists, the README example and its config.

A name deleted from a module but left in its ``__all__`` breaks
``from biphoton.<module> import *``; a README example that drifts from the
code misleads its first reader.  Both are checked here.  ``load_config``
rejects keys it does not read, so a stale README config fails here too.
"""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import biphoton
from biphoton.cli import bundled_config_path, load_config

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = [info.name for info in pkgutil.iter_modules(biphoton.__path__)
           if hasattr(importlib.import_module(f"biphoton.{info.name}"), "__all__")]


def test_modules_declare_exports():
    assert {"spatial", "spectral", "states", "modesim", "analysis"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"biphoton.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", ["rates", "scan", "scan_configs", "oracle_scan",
                                  "exchange_overlaps", "build_initial_state"])
def test_no_engine_call_takes_a_frequency_grid(name):
    # the spectral sector carries its grid, as the spatial one does
    assert "frequency_grid" not in inspect.signature(getattr(biphoton, name)).parameters


def test_the_pump_frequency_is_the_states_alone():
    # the source owns w_p: an instrument is its kind, a delay its arm and time
    assert [f.name for f in dataclasses.fields(biphoton.InterferometerConfig)] == ["kind"]
    assert [f.name for f in dataclasses.fields(biphoton.Delay)] == ["arm", "tau"]


def test_a_scan_carries_its_traces_and_engine_alone():
    # the run's provenance is its RunConfig's: no copy of it rides on the result
    assert [f.name for f in dataclasses.fields(biphoton.Interferogram)] == [
        "tau", "singles_port1", "singles_port2", "coincidences", "engine"]


def test_the_oracle_state_carries_no_spatial_grid():
    # each branch's spatial factor holds its size; nothing reads a grid beside them
    assert [f.name for f in dataclasses.fields(biphoton.BranchSumState)] == [
        "frequency_grid", "pump_frequency", "branches"]


def test_default_spdc_state_takes_only_a_spatial_grid():
    assert list(inspect.signature(biphoton.default_spdc_state).parameters) == ["spatial_grid"]


@pytest.mark.parametrize("kind", [
    biphoton.InterferometerConfig, biphoton.TwoPhotonState, biphoton.CorrelatedPump,
    biphoton.states._JointAmplitude, biphoton.AntiCorrelated])
def test_no_describe_on_config_or_state(kind):
    assert not hasattr(kind, "describe")


def test_readme_example_prints_documented_visibility():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    documented = re.search(r"print\(rep\.v1, rep\.v12\)\s*#\s*([0-9.]+),", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    v1 = float(out.getvalue().split()[0])
    assert f"{v1:.3g}" == documented == "0.0187"


def test_readme_config_is_the_bundled_mzi_config(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    documented = json.loads(blocks[0])
    assert documented == json.loads(bundled_config_path("default_mzi").read_text())
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    assert load_config(path).instrument.kind == "mzi"
