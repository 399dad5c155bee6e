import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import biphoton as bp
from biphoton import cli
from biphoton.cli import CSV_HEADER, _check_energy, bundled_config_path, load_config, main
from biphoton.errors import BiphotonError

from conftest import COINCIDENCE_PERIOD, SINGLES_PERIOD

FS = 1e-15
MM = 1e-3
NM = 1e-9


def load_bundled(name):
    return json.loads(bundled_config_path(name).read_text())


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def small_scan_config(name, **overrides):
    cfg = load_bundled(name)
    cfg["scan"] = {"tau_start_fs": -30.0, "tau_stop_fs": 30.0, "tau_step_fs": 0.2}
    cfg.update(overrides)
    return cfg


@pytest.fixture
def recorded_grams(monkeypatch):
    """The interferograms cli._run_engine returns during the test, in call order."""
    grams = []
    run_engine = cli._run_engine

    def recording(*args):
        grams.append(run_engine(*args))
        return grams[-1]

    monkeypatch.setattr(cli, "_run_engine", recording)
    return grams


def assert_pump(run, amplitude):
    """The run's sampled pump is ``amplitude``, grid and samples bit for bit."""
    pump = run.state.spatial.pump
    assert pump.grid == amplitude.grid
    assert np.array_equal(pump.values, amplitude.values)


BUNDLED_GRID = bp.SpatialGrid(half_width=3.0 * MM, point_count=257)


def run_analyze(capsys, csv_path, *extra):
    rc = main(["analyze", "--in", str(csv_path), *extra])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


class TestSimulateAndAnalyze:
    def test_bundled_balanced_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mzi.csv"
        rc = main(["simulate", "--config", str(bundled_config_path("default_mzi")),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "tau_fs,singles_port1,singles_port2,coincidence,engine"
        assert len(lines) == 1 + 5001

        rep = run_analyze(capsys, out)
        assert rep["v1"] >= 0.99
        assert rep["v12"] >= 0.99
        assert rep["fringe_period_singles"] == pytest.approx(SINGLES_PERIOD / FS, rel=0.01)
        assert rep["fringe_period_coincidence"] == pytest.approx(
            COINCIDENCE_PERIOD / FS, rel=0.01)

    def test_bundled_unbalanced_round_trip(self, tmp_path, capsys):
        out = tmp_path / "mzim.csv"
        rc = main(["simulate", "--config", str(bundled_config_path("default_mzim")),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rep = run_analyze(capsys, out)
        assert rep["v1"] <= 0.02
        assert rep["v12"] >= 0.99
        assert rep["fringe_period_singles"] is None

    def test_delays_off_their_printed_digits_round_trip(self, tmp_path, capsys):
        # The CSV holds each delay at 9 significant digits, which moves it by
        # up to 5e-9 |tau| (1e-6 fs at 200 fs): 1.2e-5 of this step.
        cfg = load_bundled("default_mzi")
        cfg["scan"] = {"tau_start_fs": -200.01234567, "tau_stop_fs": 199.9,
                       "tau_step_fs": 0.0812345678}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 1 + 4923
        rep = run_analyze(capsys, out)
        assert main(["compare", "--config", str(path)]) == 0
        exact = json.loads(capsys.readouterr().out)["mzi_report"]
        # analyze takes the mean step of the printed delays, within 1e-8
        # max|tau| / (n - 1) of the scan's; their first step was 5.3e-6 off it
        for key in ("fringe_period_singles", "fringe_period_coincidence"):
            assert rep[key] == pytest.approx(exact[key], rel=1e-8)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi")
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_engine_both_pairs_rows_and_reports_delta(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi", engine="both")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "both.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "max|d_singles|=" in stdout
        deltas = [float(tok.split("=")[1]) for tok in stdout.split()
                  if tok.startswith("max|d_")]
        assert all(d <= 1e-6 for d in deltas)

        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 2 * 301
        assert lines[0].endswith(",closed")
        assert lines[1].endswith(",oracle")
        # paired rows share the delay column
        assert lines[0].split(",")[0] == lines[1].split(",")[0]

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_engine_both_full_size(self, tmp_path, capsys, recorded_grams, name):
        grams = recorded_grams
        out = tmp_path / "both.csv"
        assert main(["simulate", "--config", str(bundled_config_path(name)),
                     "--engine", "both", "--out", str(out)]) == 0
        deltas = [float(tok.split("=")[1]) for tok in capsys.readouterr().out.split()
                  if tok.startswith("max|d_")]
        assert len(deltas) == 2 and max(deltas) <= 1e-12

        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(rows) == 2 * 5001
        table = np.array([[float(v) for v in r[:4]] for r in rows])
        assert float(np.max(np.abs(table[:, 1] + table[:, 2] - 2.0))) <= 1e-8

        closed, oracle = grams
        assert (closed.engine, oracle.engine) == ("closed", "oracle")
        for g in grams:
            assert float(np.max(np.abs(g.singles_port1 + g.singles_port2 - 2.0))) <= 1e-12
        for column in ("singles_port1", "singles_port2", "coincidences"):
            diff = getattr(closed, column) - getattr(oracle, column)
            assert float(np.max(np.abs(diff))) <= 1e-12, column

    def test_analyze_mixed_engines_requires_selection(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi", engine="both")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "both.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert "--engine" in capsys.readouterr().err
        rep = run_analyze(capsys, out, "--engine", "oracle")
        assert rep["v1"] >= 0.9

    def test_analyze_engine_missing_from_the_file_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, small_scan_config("default_mzi", engine="oracle"))
        out = tmp_path / "oracle.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--engine", "closed"]) == 1
        assert capsys.readouterr().err == "config error: no rows for engine 'closed'\n"
        # naming the one engine the file holds prints what no --engine prints
        assert main(["analyze", "--in", str(out)]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", "--in", str(out), "--engine", "oracle"]) == 0
        assert capsys.readouterr().out == plain

    def test_analyze_window_flag(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "mzi.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--window=-10:10"]) == 0
        joined = capsys.readouterr().out
        assert json.loads(joined)["window"] == [-10.0, 10.0]
        # a window with lo < 0 after a space prints the same bytes, before
        # --engine or after it
        for argv in (["--window", "-10:10"], ["--window", "-10:10", "--engine", "closed"],
                     ["--engine", "closed", "--window", "-10:10"]):
            assert main(["analyze", "--in", str(out), *argv]) == 0
            assert capsys.readouterr().out == joined

    @pytest.mark.parametrize("window", ["10:5", "nan:5", "5:5", "-inf:5", "1:2:3", "x:5"])
    def test_malformed_window_exits_one(self, tmp_path, capsys, window):
        path = write_config(tmp_path, small_scan_config("default_mzi"))
        out = tmp_path / "mzi.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), f"--window={window}"]) == 1
        assert capsys.readouterr().err.startswith("config error: --window ")

    @pytest.mark.parametrize("window", ["-inf:5", "-5:-10", "-1:x", "-:", "-1:2:3", "-10"])
    def test_malformed_window_after_a_space_exits_one(self, tmp_path, capsys, window):
        path = write_config(tmp_path, small_scan_config("default_mzi"))
        out = tmp_path / "mzi.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--window", window]) == 1
        assert capsys.readouterr().err.startswith("config error: --window ")

    def test_window_outside_scan_exits_two(self, tmp_path, capsys):
        # README's example: a well-formed window that holds no samples
        out = tmp_path / "mzi.csv"
        assert main(["simulate", "--config", str(bundled_config_path("default_mzi")),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out), "--window=500:600"]) == 2
        assert capsys.readouterr().err == "engine error: window contains no samples\n"

    def test_scan_without_zero_delay_is_analysed(self, tmp_path, capsys):
        # the default window sits at the scanned delay nearest zero, here 100 fs;
        # centred on zero it held no sample and both commands exited 2
        cfg = load_bundled("default_mzim")
        cfg["scan"] = {"tau_start_fs": 100.0, "tau_stop_fs": 300.0, "tau_step_fs": 0.08}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "mzim.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        lo, hi = run_analyze(capsys, out)["window"]
        assert lo < 100.0 < hi < 300.0
        assert (lo + hi) / 2.0 == pytest.approx(100.0, rel=1e-12)
        assert main(["compare", "--config", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        for kind in ("mzi", "mzim"):
            lo, hi = result[f"{kind}_report"]["window"]
            assert (lo + hi) / 2.0 == pytest.approx(100.0, rel=1e-12)

    def test_json_output_format(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi")
        cfg["output"]["format"] = "json"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.json"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        records = json.loads(out.read_text())["records"]
        assert len(records) == 301
        assert set(records[0]) == {"tau_fs", "singles_port1", "singles_port2",
                                   "coincidence", "engine"}


class TestGoldenOutput:
    """SHA-256 of ``simulate`` output on the bundled configs, recorded from
    the per-record writer this package used before the columnar one.  A
    change to the output contract (format, layout, float text) fails here."""

    CSV_DIGESTS = {
        ("default_mzi", "closed"):
            "c9888db42726fa8177191ef302b2ff851ccc2ddd3c5ff9e8513ce5baaf771cf5",
        ("default_mzi", "oracle"):
            "54fa821c94e757117ee2946df4aae5646dfbcc552f201d2b0ded2b774893c9c0",
        ("default_mzi", "both"):
            "3fdd966c0bb0428280b6967f7736038af151cacb8b1153a67ce6be93bbfbf992",
        ("default_mzim", "closed"):
            "51687ce03c4eec83104e135ef4f32486c5cddbe4469c0903a898b3854d47adb8",
        ("default_mzim", "oracle"):
            "f15a4ff2313105c7cb7e8e550f76c38660d80e00640a7526ee2e95e990bd9ce8",
        ("default_mzim", "both"):
            "8693848ae78857861664a56086264244c93b77dbbbdd93aee58f19574388eaa8",
    }
    JSON_DIGEST = "26fac825019e4cb6d315dd986e8b2446a377f5938d7b884ad03eb0b7f55015fa"
    # Small-grid MZIM runs the bundled configs miss.  The pump digests were
    # recorded before spectral.normalize took its integral from
    # FrequencyGrid.trapezoid_weights() instead of np.trapezoid.  On this
    # 129-point grid the two totals of the Gaussian filter differ in the last
    # bit, and one oracle row moves: the coincidence at zero delay, round-off
    # around zero, reads 3.88578059e-16 instead of 6.66133815e-16.  The
    # Gaussian-filter digests are the ones after that change; before it they
    # were 19e7e96f... ("both") and 106c7d3e... ("oracle").
    SMALL_GRID_DIGESTS = {
        ("gaussian_filter", "both"):
            "b488d880a820ff06f8ad513baa04e5bbb538b9c62d8326f28e597bac229a541e",
        ("gaussian_filter", "oracle"):
            "0439e7f872d2e58a52f91d68a31dc84ba580633f2c94182e4a94a387c69f825e",
        ("hg1", "both"):
            "16eac154b2479ea93b3b29e6dc41e3f5e8593b1f0036db03900b87dc62862de2",
        ("hg1", "oracle"):
            "b03a6d1870e8dfa665dc8727d94c79787377e887cd9939446f71a927b99ebb8d",
        ("shifted_gaussian", "both"):
            "a2ea9018802c7c5155e38e52182e092224c74bbac7186d077007e2499369551c",
        ("shifted_gaussian", "oracle"):
            "20af753d1e184a2de6b211aa2a816ef86271da0bbd1482e9baaf7e038fd6012c",
        ("tabulated_file", "both"):
            "33c4ecb1e04d174c6dd380178cc9ff99a51c0480e781f75981fdcd9aa6e4be75",
        ("tabulated_file", "oracle"):
            "9c6ae68fcc542c535bee46863dc4d9416cc2cc16c3a810790267eefdf1f7e4b7",
    }

    # MZIM on a 4097-point spectral grid, JSON, --engine both, +-5 fs at
    # 0.05 fs: the oracle's delay table has 8193-point rows, padded to an
    # FFT length of 16384 (the bundled configs reach 8192).  Every pump gives
    # 12 keys.  A key whose pairs are another key's negated reads that row
    # with sign -1, so hg1 builds 4 rows and the other pumps 5; only the rows
    # nonzero somewhere are transformed, 3 for hg1 and 4 for the others.
    # The shifted and tabulated pumps, which the benchmark's fine-grid survey
    # runs on the oracle alone, read the m = 1 twin that hg1 lacks.  Their
    # digests were recorded while every twin row was still built and
    # transformed on its own.
    FINE_GRID_JSON_DIGESTS = {
        "gaussian": "a04eed88b14e6f157b718b1005711520b6a5803e20317164c996f7320ff8d72a",
        "hg1": "5ee861c51c35450e3c494aeacae27c0ee048e5d3b6f58213c2bb5906624bed07",
        "shifted_gaussian":
            "ea6151c3dc3ae50a5af3e6c80008eb35a0ba3c27d64f833b526d37387977ee27",
        "tabulated_file":
            "4e89f73a34adff7cb9e5ea9663ab09b28d6322039c8cc6c12a7db964ca0d33da",
    }

    @staticmethod
    def small_grid_config(tmp_path, case):
        cfg = load_bundled("default_mzim")
        cfg["scan"] = {"tau_start_fs": -50.0, "tau_stop_fs": 50.0, "tau_step_fs": 0.1}
        cfg["grids"] = {"spatial_points": 65, "spectral_points": 129,
                        "spatial_halfwidth_mm": 3.0}
        profile = cfg["pump"]["spatial_profile"]
        if case == "gaussian_filter":
            cfg["filter"]["shape"] = "gaussian"
        elif case == "hg1":
            profile.update(kind="hg1", waist_mm=0.8)
        elif case == "shifted_gaussian":
            profile.update(kind="shifted_gaussian", waist_mm=0.9, shift_mm=0.6)
        else:
            table = tmp_path / "pump.csv"
            table.write_text("".join(
                f"{x:.1f},{math.exp(-(x - 0.5) ** 2):.9f},{0.3 * math.exp(-(x + 0.4) ** 2):.9f}\n"
                for x in np.arange(-40, 41) / 10))
            cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table)}
        return write_config(tmp_path, cfg)

    # stdout of analyze (on the closed scan CSV) and of compare, recorded
    # when analysis took its delay step as the mean step instead of the first
    # one.  Periods and windows moved by at most 1.35e-13 relative; before,
    # the digests were c4f37beb..., 62249ae1... and 6c4c628f... (compare).
    STDOUT_DIGESTS = {
        ("analyze", "default_mzi"):
            "5fa7287cd20096d3af232c8872cb47f3395a504dfdaf7e7a22a4ec04239dd06b",
        ("analyze", "default_mzim"):
            "d9acfc735b1277018a23e7fdc49abacaa9c7f5e55dd27dd494cdb6ceaf0e7dab",
        ("compare", "default_mzi"):
            "43e45bfa76d838d39368d331957e310a32270fd5c6347908ba21c6da32655e34",
        ("compare", "default_mzim"):
            "43e45bfa76d838d39368d331957e310a32270fd5c6347908ba21c6da32655e34",
    }

    @pytest.mark.parametrize("command, name", sorted(STDOUT_DIGESTS))
    def test_stdout_bytes(self, tmp_path, capsys, command, name):
        config = str(bundled_config_path(name))
        if command == "analyze":
            out = tmp_path / "scan.csv"
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
            capsys.readouterr()
            argv = ["analyze", "--in", str(out)]
        else:
            argv = ["compare", "--config", config]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.STDOUT_DIGESTS[command, name]

    @pytest.mark.parametrize("name, engine", sorted(CSV_DIGESTS))
    def test_csv_bytes(self, tmp_path, capsys, name, engine):
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(bundled_config_path(name)),
                     "--engine", engine, "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.CSV_DIGESTS[name, engine]

    @pytest.mark.parametrize("case, engine", sorted(SMALL_GRID_DIGESTS))
    def test_small_grid_csv_bytes(self, tmp_path, capsys, case, engine):
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(self.small_grid_config(tmp_path, case)),
                     "--engine", engine, "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.SMALL_GRID_DIGESTS[case, engine]

    @staticmethod
    def fine_grid_profile(tmp_path, kind):
        if kind == "shifted_gaussian":
            return {"kind": kind, "waist_mm": 1.0, "shift_mm": 0.4}
        if kind == "tabulated_file":
            # complex and of no definite parity, as the survey's tables
            table = tmp_path / "pump.csv"
            table.write_text("".join(
                f"{x:.2f},{(1.0 + 0.3 * x) * math.exp(-(x - 0.3) ** 2):.9f},"
                f"{0.2 * x * math.exp(-x ** 2):.9f}\n" for x in np.arange(-60, 61) / 20))
            return {"kind": kind, "path": str(table)}
        return {"kind": kind, "waist_mm": 0.9 if kind == "hg1" else 1.0}

    @pytest.mark.parametrize("kind", sorted(FINE_GRID_JSON_DIGESTS))
    def test_fine_grid_json_bytes(self, tmp_path, capsys, kind):
        cfg = load_bundled("default_mzim")
        cfg["scan"] = {"tau_start_fs": -5.0, "tau_stop_fs": 5.0, "tau_step_fs": 0.05}
        cfg["grids"] = {"spatial_points": 257, "spectral_points": 4097,
                        "spatial_halfwidth_mm": 3.0}
        cfg["pump"]["spatial_profile"] = self.fine_grid_profile(tmp_path, kind)
        cfg["output"]["format"] = "json"
        out = tmp_path / "scan.json"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--engine", "both", "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.FINE_GRID_JSON_DIGESTS[kind]

    def test_json_bytes_and_records(self, tmp_path, capsys, recorded_grams):
        grams = recorded_grams
        cfg = load_bundled("default_mzim")
        cfg["output"]["format"] = "json"
        out = tmp_path / "scan.json"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--engine", "both", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.JSON_DIGEST

        # one dict per engine per delay, as json.dumps(..., indent=1) wrote them
        expected = [
            {"tau_fs": g.tau[i] / FS, "singles_port1": float(g.singles_port1[i]),
             "singles_port2": float(g.singles_port2[i]),
             "coincidence": float(g.coincidences[i]), "engine": g.engine}
            for i in range(grams[0].tau.size) for g in grams]
        text = out.read_text()
        assert json.loads(text)["records"] == expected
        assert text == json.dumps({"records": expected}, indent=1) + "\n"


def _str_template_output(fmt, grams):
    """The file the writer made through a str %-template and ``encode``, as
    bytes with \\n line ends: the reference for the bytes template."""
    values = cli._row_values(grams)
    n = grams[0].tau.size
    if fmt == "csv":
        row = "".join(f"%.9g,%.9g,%.9g,%.9g,{g.engine}\n" for g in grams)
        return (CSV_HEADER + "\n" + (row * n) % tuple(values)).encode()
    record = ",\n".join(
        '  {\n   "tau_fs": %r,\n   "singles_port1": %r,\n   "singles_port2": %r,\n'
        f'   "coincidence": %r,\n   "engine": {json.dumps(g.engine)}\n  }}'
        for g in grams)
    body = ",\n".join([record] * n) % tuple(values)
    return ('{\n "records": [\n' + body + "\n ]\n}\n").encode()


def _near(*values):
    """Each value and its two float neighbours."""
    return [x for v in values for x in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))]


# Where the text of a float changes form or rounds: signed zero, the least
# subnormal, %.9g's switch to an exponent below 1e-4 (and the rounding of
# 9.999999995e-05 up to it) and at 1e9, repr's switch at 1e16, and 10-digit
# integers ending in 5, 9-digit ties that %.9g rounds half to even.
_EDGES = [float(v) for v in (
    [0.0, -0.0, 5e-324, 1.0]
    + _near(1e-4, 9.99999999e-05, 9.999999995e-05, 1e9, 1e16)
    + [1234567885.0, 1000000005.0, 9999999995.0])]
_RATE = st.one_of(st.sampled_from([v for v in _EDGES if v >= 0.0]),  # -0.0 too
                  st.floats(min_value=0.0, max_value=1e300))
_DELAY_FS = st.one_of(st.sampled_from(_EDGES + [-v for v in _EDGES]),
                      st.floats(min_value=-1e300, max_value=1e300))


class TestWriterBytes:
    """``_write_output`` gives the bytes of the str template it replaced, on
    drawn columns beyond the bundled digests."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), fmt=st.sampled_from(["csv", "json"]),
           engines=st.sampled_from([["closed"], ["oracle"], ["closed", "oracle"]]),
           n=st.integers(min_value=1, max_value=6))
    def test_bytes_of_the_str_template(self, tmp_path, data, fmt, engines, n):
        grams = []
        for engine in engines:
            columns = [data.draw(st.lists(_DELAY_FS, min_size=n, max_size=n))] + [
                data.draw(st.lists(_RATE, min_size=n, max_size=n)) for _ in range(3)]
            grams.append(bp.Interferogram(np.array(columns[0]) * FS, *columns[1:],
                                          engine=engine))
        out = tmp_path / f"scan.{fmt}"
        cli._write_output(str(out), fmt, grams)
        written = out.read_bytes()
        assert written == _str_template_output(fmt, grams)
        if fmt == "json":
            records = [{"tau_fs": g.tau[i] / FS, "singles_port1": float(g.singles_port1[i]),
                        "singles_port2": float(g.singles_port2[i]),
                        "coincidence": float(g.coincidences[i]), "engine": g.engine}
                       for i in range(n) for g in grams]
            assert written == (json.dumps({"records": records}, indent=1) + "\n").encode()


class TestAnalyzeSchemaErrors:
    def test_wrong_header(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tau,singles,coincidence\n0,1,1\n")
        assert main(["analyze", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "tau,singles,coincidence" in err

    def test_truncated_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("tau_fs,singles_port1,singles_port2,coincidence,engine\n"
                       "0.0,1.0,1.0\n")
        assert main(["analyze", "--in", str(bad)]) == 1

    def test_missing_file(self, capsys):
        assert main(["analyze", "--in", "/nonexistent.csv"]) == 1

    @pytest.mark.parametrize("tail", ["\n", "", "\n\n  \n"], ids=["header", "no_newline", "blanks"])
    def test_header_without_data_rows_exit_one(self, tmp_path, capsys, tail):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + tail)
        assert main(["analyze", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: the input file {path} has no data rows after the CSV header\n"

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_exit_one(self, tmp_path, capsys, column, value):
        header = "tau_fs,singles_port1,singles_port2,coincidence,engine"
        rows = [f"{t:.1f},1.0,1.0,1.0,closed" for t in range(-20, 21)]
        cells = rows[20].split(",")
        cells[column] = value
        rows[20] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        assert main(["analyze", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 22:" in err
        assert header.split(",")[column] in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("bad_row", ["0.2,nan,1.0,1.0,closed", "0.2,one,1.0,1.0,closed",
                                         "0.2,1.0,closed"],
                             ids=["non_finite", "unparseable", "short"])
    def test_blank_lines_keep_line_numbers(self, tmp_path, capsys, bad_row):
        header = "tau_fs,singles_port1,singles_port2,coincidence,engine"
        rows = [f"{t / 10:.1f},1.0,1.0,1.0,closed" for t in range(-20, 21)]
        # line 1 the header, lines 2 and 4 blank, line 5 the bad row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, "", rows[0], "", bad_row] + rows[1:]) + "\n")
        assert main(["analyze", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 5:" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("edit", ["leading_blank_lines", "whitespace_line"])
    def test_line_reader_returns_the_fast_parse_columns(self, tmp_path, edit):
        header = "tau_fs,singles_port1,singles_port2,coincidence,engine"
        rows = [f"{t / 10:.1f},1.25,0.75,{1 + t / 100:.2f},closed" for t in range(-20, 21)]
        good = tmp_path / "good.csv"
        good.write_text("\n".join([header] + rows) + "\n")
        lines = ["", "", header] + rows if edit == "leading_blank_lines" else (
            [header] + rows[:5] + ["   "] + rows[5:])
        odd = tmp_path / "odd.csv"
        odd.write_text("\n".join(lines) + "\n")
        with mock.patch.object(cli, "_read_csv_lines", wraps=cli._read_csv_lines) as reader:
            fast = cli._read_csv(good)
            assert reader.call_count == 0
            slow = cli._read_csv(odd)
            assert reader.call_count == 1
        for a, b in zip(fast, slow):
            assert np.array_equal(a, b)


class TestAnalyzeOverflow:
    """Rates near the float limit overflow the windowed FFT: analyze exits 2
    naming the trace, and never prints NaN."""

    @staticmethod
    def huge_csv(tmp_path, case):
        rows = [CSV_HEADER]
        for i in range(50):
            if case == "flat":
                s1 = s2 = 1e308
            else:
                sign = (-1) ** i
                s1, s2 = 1e308 * (1 + 0.5 * sign) / 1.5, 1e308 * (1 - 0.5 * sign) / 1.5
            rows.append(f"{0.1 * i:.9g},{s1:.9g},{s2:.9g},1e308,closed")
        path = tmp_path / f"{case}.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("window", [None, "0:1"])
    @pytest.mark.parametrize("case", ["flat", "alternating"])
    def test_exits_two(self, tmp_path, capsys, case, window):
        argv = ["analyze", "--in", str(self.huge_csv(tmp_path, case))]
        if window:
            argv += ["--window", window]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("engine error: the singles rates must be finite and "
                                       "below ")


def run_main_quietly(argv):
    """(exit code, stderr) of cli.main; any uncaught exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# Cell text that float() refuses and that leaves the line structure alone:
# no comma and no character str.splitlines breaks at.
_NON_NUMERIC = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters=",\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    max_size=6).filter(_not_a_float)
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999"])


@pytest.fixture(scope="module")
def written_csv(tmp_path_factory):
    """Lines of a valid scan CSV written by ``simulate``."""
    tmp = tmp_path_factory.mktemp("written")
    out = tmp / "scan.csv"
    path = write_config(tmp, small_scan_config("default_mzi"))
    assert run_main_quietly(["simulate", "--config", str(path), "--out", str(out)])[0] == 0
    return out.read_text().splitlines()


class TestReaderFuzz:
    """A valid CSV with one line corrupted: analyze exits 1, names the file
    line (counting blank lines) and the column, and prints no traceback."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_corrupted_line(self, written_csv, data):
        lines = list(written_csv)
        kind = data.draw(st.sampled_from(
            ["drop", "add", "non_numeric", "non_finite", "hash", "header"]), label="kind")
        index = 0 if kind == "header" else data.draw(
            st.integers(1, len(lines) - 1), label="row")
        cells = lines[index].split(",")
        needle = None
        if kind == "drop":
            del cells[data.draw(st.integers(0, 4))]
            needle = "expected 5 fields, got 4"
        elif kind == "add":
            cells.insert(data.draw(st.integers(0, 5)), data.draw(st.sampled_from(["1.0", "", "x"])))
            needle = "expected 5 fields, got 6"
        elif kind in ("non_numeric", "non_finite"):
            column = data.draw(st.integers(0, 3))
            cells[column] = data.draw(_NON_NUMERIC if kind == "non_numeric" else _NON_FINITE)
            needle = CSV_HEADER.split(",")[column]
        elif kind == "hash":
            cells[0] = "#" + cells[0]
            needle = "tau_fs"
        else:
            cells = data.draw(st.sampled_from(
                [["tau", "singles", "coincidence"], cells + ["x"], [c.upper() for c in cells],
                 ["#" + cells[0]] + cells[1:], cells[:4]]))
            needle = "unexpected CSV header"
        lines[index] = ",".join(cells)
        blanks = data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3), label="blanks")
        lines[index:index] = blanks
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.csv"
            path.write_text("\n".join(lines) + "\n")
            rc, err = run_main_quietly(["analyze", "--in", str(path)])
        assert rc == 1
        assert f"line {index + 1 + len(blanks)}:" in err
        assert needle in err
        assert "Traceback" not in err


class _Accepted(Exception):
    """Raised in place of running an engine once a config is accepted."""


def _dict_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _dict_paths(value, prefix + (key,))


_JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([0, -1, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6))
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def mutated_configs(draw):
    """JSON text of the bundled config after random key deletions, value
    replacements and, sometimes, damage to the text itself."""
    cfg = load_bundled("default_mzi")
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_dict_paths(cfg))
        if not paths or draw(st.integers(0, 19)) == 0:
            cfg = draw(_JSON_VALUE)
            continue
        path = draw(st.sampled_from(paths))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON_VALUE)
    text = json.dumps(cfg)
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(["", "{", "}", ",", '"', "]", "x", "\\"])) \
            + text[at + cut:]
    return text


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=mutated_configs())
    def test_mutated_config_exits_one_or_is_accepted(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(text)
            with mock.patch.object(cli, "_run_engine", side_effect=_Accepted):
                try:
                    rc, err = run_main_quietly(["simulate", "--config", str(path)])
                except _Accepted:
                    return
        assert rc == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def _odd(lo, hi):
    return _log_uniform(lo, hi).map(lambda n: 2 * int(n // 2) + 1)


@st.composite
def pump_tables(draw, half_mm, spacing_mm):
    """CSV text of a pump table of 1 to 60 rows: from a third of a grid
    spacing wide to nearly the grid's width, placed across the grid edge
    sometimes, with samples of any magnitude, some zero, and an imaginary
    column or not."""
    rows = draw(st.integers(1, 60))
    width = spacing_mm * draw(_log_uniform(0.3, max(0.9 * half_mm / spacing_mm, 0.3)))
    x = (half_mm - width) * draw(st.floats(-1.1, 1.1)) + width * np.linspace(-1.0, 1.0, rows)
    scale = draw(st.sampled_from([1.0]) | _log_uniform(1e-300, 1e300))
    columns = draw(st.integers(1, 2))
    values = draw(st.lists(st.sampled_from([0.0, 0.1, -0.5, 1.0]) | st.floats(-1.0, 1.0),
                           min_size=rows * columns, max_size=rows * columns))
    samples = scale * np.array(values).reshape(rows, columns)
    return "".join(",".join(repr(float(v)) for v in (xi, *row)) + "\n"
                   for xi, row in zip(x, samples))


_SECTIONS = ("pump", "filter", "interferometer", "scan", "grids", "output")
_TAKEN_OUT = object()


@st.composite
def runnable_configs(draw):
    """(config, pump table text or None, damage) near the edges of what
    load_config accepts.  Scales are log-uniform over decades; each ratio
    that a check bounds is drawn a little past the bound too.  The grids
    stay small, at most 257 x 1025 points and 2001 delays, so a draw runs in
    milliseconds.  Some configs leave out ``engine`` or ``waist_mm`` for
    their defaults; in some, ``damage`` takes out a section or makes it a
    non-object."""
    wavelength_nm = draw(_log_uniform(1.0, 1e5))
    relative_bandwidth = draw(_log_uniform(1e-7, 0.9))
    bandwidth_nm = 2.0 * wavelength_nm * relative_bandwidth
    # the passband must hold 2 wavelength_nm
    center_nm = 2.0 * wavelength_nm + draw(st.floats(-1.05, 1.05)) * bandwidth_nm / 2.0
    spatial_points, spectral_points = draw(_odd(3, 257)), draw(_odd(3, 1025))
    half_mm = draw(_log_uniform(0.01, 100.0))
    spacing_mm = 2.0 * half_mm / (spatial_points - 1)
    # from just below one grid spacing to a pump wider than the grid
    waist_mm = spacing_mm * draw(_log_uniform(0.8, max(0.7 * half_mm / spacing_mm, 0.8)))
    kind = draw(st.sampled_from(sorted(cli._PROFILES)))
    profile = {"kind": kind, "waist_mm": waist_mm, "path": "pump.csv",
               "shift_mm": (half_mm - 1.5 * waist_mm) * draw(st.floats(-1.1, 1.1))}
    profile = {key: profile[key] for key in ("kind",) + tuple(cli._PROFILES[kind].keys)}
    if "waist_mm" in profile and draw(st.integers(0, 3)) == 0:
        del profile["waist_mm"]  # 1 mm
    table = draw(pump_tables(half_mm, spacing_mm)) if kind == "tabulated_file" else None
    # the step up to past MAX_STEP_FRACTION (0.2) of the pump period
    pump_period_fs = wavelength_nm * NM / bp.units.SPEED_OF_LIGHT / FS
    step = pump_period_fs * draw(_log_uniform(0.005, 0.25))
    delays = int(draw(_log_uniform(1.0, 2001.0)))
    start = -0.5 * (delays - 1) * step
    if draw(st.booleans()):  # out to past the reach pi / (2 h), exact for a rectangle
        width = 2.0 * math.pi * bp.units.SPEED_OF_LIGHT * bandwidth_nm / NM / (center_nm * NM)**2
        reach_fs = math.pi * (spectral_points - 1) / (8.0 * width) / FS
        start = draw(st.sampled_from([-1.0, 1.0])) * reach_fs * draw(_log_uniform(0.01, 1.2))
    cfg = {
        "pump": {"wavelength_nm": wavelength_nm, "spatial_profile": profile},
        "filter": {"center_nm": center_nm, "bandwidth_nm": bandwidth_nm,
                   "shape": draw(st.sampled_from(["rectangular", "gaussian"]))},
        "interferometer": {"kind": draw(st.sampled_from(["mzi", "mzim"]))},
        "scan": {"tau_start_fs": start, "tau_stop_fs": start + (delays - 1) * step,
                 "tau_step_fs": step},
        "engine": "both",
        "grids": {"spatial_points": spatial_points, "spectral_points": spectral_points,
                  "spatial_halfwidth_mm": half_mm},
        "output": {"path": "scan.csv", "format": "csv"},
    }
    if draw(st.integers(0, 3)) == 0:
        del cfg["engine"]  # closed
    # (section, what replaces it) once the test has placed its files, or None;
    # one draw in eight (0, the shrink target, comes up more often than that)
    damage = None
    if draw(st.integers(0, 7)) == 3:
        damage = (draw(st.sampled_from(_SECTIONS)),
                  draw(st.sampled_from([_TAKEN_OUT, None, 5, 2.5, "x", [], True])))
    return cfg, table, damage


class TestRunnableConfigFuzz:
    """``simulate`` on configs that load_config may accept, with engine
    ``both`` or, left out, ``closed``: each exits 0 with the engines agreeing
    and the port sum rule holding, or exits 1 naming a field (the damaged
    section, if any); never 2, never a traceback.  numpy's RuntimeWarning is
    an error here (pyproject's filterwarnings).  The example count comes from
    the hypothesis profile, so CI's ``deep`` profile can raise it."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=runnable_configs())
    def test_simulate_both_runs_or_names_a_field(self, drawn):
        cfg, table, damage = drawn
        # the fields an exit 1 may name: the config's own, and the keys its
        # profile kind declares, one of which may have been left out for its default
        kind = cfg["pump"]["spatial_profile"]["kind"]
        names = {".".join(key) for key in _dict_paths(cfg)}
        names.update(f"pump.spatial_profile.{key}" for key in cli._PROFILES[kind].keys)
        engines = ["closed", "oracle"] if "engine" in cfg else ["closed"]
        grams = []
        run_engine = cli._run_engine

        def recording(*args):
            grams.append(run_engine(*args))
            return grams[-1]

        with tempfile.TemporaryDirectory() as tmp:
            if table is not None:
                cfg["pump"]["spatial_profile"]["path"] = str(Path(tmp) / "pump.csv")
                Path(tmp, "pump.csv").write_text(table)
            out = Path(tmp) / "scan.csv"
            cfg["output"]["path"] = str(out)
            if damage is not None:
                section, value = damage
                names = {section}
                if value is _TAKEN_OUT:
                    del cfg[section]
                else:
                    cfg[section] = value
            path = write_config(Path(tmp), cfg)
            with mock.patch.object(cli, "_run_engine", side_effect=recording):
                rc, err = run_main_quietly(["simulate", "--config", str(path)])
            written = out.exists()
        assert "Traceback" not in err
        if rc == 1:
            assert err.startswith("config error: ")
            field = err[len("config error: "):].split(":")[0].split("/")[0]
            assert field in names, err
            assert not written
            event(f"exit 1 naming {field}")
            return
        assert rc == 0 and damage is None, err
        event(f"exit 0, {kind}, {' and '.join(engines)}")
        assert [gram.engine for gram in grams] == engines
        if len(grams) == 2:
            closed, oracle = grams
            for column in ("singles_port1", "singles_port2", "coincidences"):
                assert np.max(np.abs(getattr(closed, column) - getattr(oracle, column))) <= 1e-12
        for gram in grams:
            assert np.max(np.abs(gram.singles_port1 + gram.singles_port2 - 2.0)) <= 1e-12
        assert written


class TestPumpsOfNoDefiniteParity:
    """Shifted and tabulated pumps are neither even nor odd; the closed
    engine covers them and agrees with the oracle."""

    @staticmethod
    def config(tmp_path, kind):
        cfg = small_scan_config("default_mzim")
        if kind == "shifted_gaussian":
            profile = {"kind": kind, "waist_mm": 1.0, "shift_mm": 0.7}
        else:
            table = tmp_path / "pump.csv"
            table.write_text("".join(
                f"{x:.1f},{math.exp(-(x - 0.5) ** 2):.9f},{0.3 * math.exp(-(x + 0.4) ** 2):.9f}\n"
                for x in np.arange(-40, 41) / 10))
            profile = {"kind": kind, "path": str(table)}
        cfg["pump"]["spatial_profile"] = profile
        return write_config(tmp_path, cfg)

    @pytest.mark.parametrize("kind", ["shifted_gaussian", "tabulated_file"])
    @pytest.mark.parametrize("engine", ["closed", "both"])
    def test_simulate(self, tmp_path, capsys, kind, engine):
        path = self.config(tmp_path, kind)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--engine", engine,
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1 + 301 * (2 if engine == "both" else 1)
        if engine == "both":
            deltas = [float(tok.split("=")[1]) for tok in stdout.split()
                      if tok.startswith("max|d_")]
            assert len(deltas) == 2 and max(deltas) <= 1e-12

    @pytest.mark.parametrize("kind", ["shifted_gaussian", "tabulated_file"])
    def test_compare(self, tmp_path, capsys, kind):
        assert main(["compare", "--config", str(self.config(tmp_path, kind))]) == 0
        result = json.loads(capsys.readouterr().out)
        # b < 1 shrinks both MZIM coincidence fringe terms
        assert result["coincidence_identical"] is False
        assert result["mzi_report"]["v1"] >= 0.99


class TestCompare:
    def test_default_state_coincidences_identical(self, tmp_path, capsys):
        path = write_config(tmp_path, load_bundled("default_mzi"))
        assert main(["compare", "--config", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["coincidence_identical"] is True
        assert result["max_coincidence_delta"] <= 1e-6
        assert result["mzi_report"]["v1"] >= 0.99
        assert result["mzim_report"]["v1"] <= 0.02
        assert result["mzi_report"]["v12"] >= 0.99
        assert result["mzim_report"]["v12"] >= 0.99

    def test_shifted_pump_breaks_invariance(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi", engine="oracle")
        cfg["pump"]["spatial_profile"] = {
            "kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": 1.0}
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["coincidence_identical"] is False
        assert result["max_coincidence_delta"] > 0.1

    def test_odd_pump_keeps_amplitude_shifts_phase(self, tmp_path, capsys):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": "hg1", "waist_mm": 1.0}
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        # The fringes of the two variants share the pump period but sit pi
        # apart at equal amplitude, so the pointwise difference is exactly
        # the doubled interference term with maximum 2 (at zero delay the
        # dip of one variant faces the peak of the other).
        assert result["coincidence_identical"] is False
        assert result["max_coincidence_delta"] == pytest.approx(2.0, abs=0.01)
        assert result["mzi_report"]["fringe_period_coincidence"] == pytest.approx(
            COINCIDENCE_PERIOD / FS, rel=0.01)
        assert result["mzim_report"]["fringe_period_coincidence"] == pytest.approx(
            COINCIDENCE_PERIOD / FS, rel=0.01)
        assert result["mzi_report"]["v12"] >= 0.99

    def test_closed_grams_equal_separate_scans(self, tmp_path, capsys, monkeypatch):
        # compare scans both instruments with one envelope pair; each trace
        # must equal a scan of that instrument alone, bit for bit
        cfg = small_scan_config("default_mzi")
        cfg["pump"]["spatial_profile"] = {
            "kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": 0.7}
        path = write_config(tmp_path, cfg)
        calls = []
        reports = cli.analysis.reports
        monkeypatch.setattr(cli.analysis, "reports",
                            lambda *args: calls.append(args) or reports(*args))
        assert main(["compare", "--config", str(path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        tau, singles_rows, coincidence_rows = calls[0]
        assert len(singles_rows) == len(coincidence_rows) == 2
        for kind, singles, coincidences in zip(("mzi", "mzim"), singles_rows, coincidence_rows):
            cfg["interferometer"]["kind"] = kind
            run = load_config(write_config(tmp_path, cfg, f"{kind}.json"))
            icfg = run.instrument
            alone = bp.scan(run.state, icfg, run.tau_start, run.tau_stop, run.tau_step)
            assert icfg.kind == kind
            for got, want in ((tau, alone.tau), (singles, alone.singles_port1),
                              (coincidences, alone.coincidences)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("engine", ["closed", "oracle"])
    def test_reports_equal_one_report_per_gram(self, tmp_path, capsys, engine):
        # one reports call serves both instruments; each JSON report is the
        # one report gives that instrument's scan alone
        cfg = small_scan_config("default_mzi", engine=engine)
        assert main(["compare", "--config", str(write_config(tmp_path, cfg))]) == 0
        result = json.loads(capsys.readouterr().out)
        for kind in ("mzi", "mzim"):
            cfg["interferometer"]["kind"] = kind
            run = load_config(write_config(tmp_path, cfg, f"{kind}.json"))
            gram = cli._run_engine(run, run.instrument, engine)
            rep = bp.report(gram.tau, gram.singles_port1, gram.coincidences)
            assert result[f"{kind}_report"] == cli._report_to_json(rep)

    def test_closed_compare_transforms_once_each_way(self, tmp_path, capsys, monkeypatch):
        # the bundled 5001-point scans pay a Bluestein plan per FFT call:
        # both instruments share one rfft and one irfft
        calls = {"rfft": 0, "irfft": 0}

        def counted(name):
            transform = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name))
        path = write_config(tmp_path, load_bundled("default_mzi"))
        assert main(["compare", "--config", str(path)]) == 0
        capsys.readouterr()
        assert calls == {"rfft": 1, "irfft": 1}

    def test_compare_rejects_engine_both(self, tmp_path, capsys):
        path = write_config(tmp_path, small_scan_config("default_mzi", engine="both"))
        assert main(["compare", "--config", str(path)]) == 1

    @pytest.mark.parametrize("engine", ["closed", "oracle"])
    def test_compare_rejects_one_delay_before_any_engine(self, tmp_path, capsys,
                                                         monkeypatch, engine):
        # analysis needs two samples: a one-delay scan used to run both engines, then exit 2
        cfg = load_bundled("default_mzim")
        cfg["engine"] = engine
        cfg["scan"] = {"tau_start_fs": 0.0, "tau_stop_fs": 0.0, "tau_step_fs": 0.08}
        path = write_config(tmp_path, cfg)

        def engine_ran(*args):
            raise AssertionError("an engine ran")
        monkeypatch.setattr(cli, "scan_configs", engine_ran)
        monkeypatch.setattr(cli, "_run_engine", engine_ran)
        assert main(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "config error: scan.tau_stop_fs: compare needs at least two delays, got one\n")

    def test_analyze_of_one_delay_exits_two(self, tmp_path, capsys):
        # simulate writes a one-row scan; analyze finds it has too few samples, as for --window
        cfg = load_bundled("default_mzim")
        cfg["scan"] = {"tau_start_fs": 0.0, "tau_stop_fs": 0.0, "tau_step_fs": 0.08}
        out = tmp_path / "mzim.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 2
        assert capsys.readouterr().err == "engine error: need at least two samples\n"


class TestChirpZPlans:
    """What one-shot commands gain from the chirp-z plan cache: the plans
    (``spectral._plan`` misses) each builds, and none when it repeats."""

    @pytest.mark.parametrize("command, plans", [
        ("simulate", 3),  # E1, E2 and the oracle's delay table
        ("compare", 1),   # the oracle's table, shared by both instruments
    ])
    def test_plans_built_per_call(self, tmp_path, capsys, command, plans):
        cfg = load_bundled("default_mzim")
        cfg["engine"] = "oracle"
        path = str(write_config(tmp_path, cfg))
        argv = {"simulate": ["simulate", "--config", path, "--engine", "both",
                             "--out", str(tmp_path / "scan.csv")],
                "compare": ["compare", "--config", path]}[command]
        bp.spectral._plan.cache_clear()
        for built in (plans, 0):
            misses = bp.spectral._plan.cache_info().misses
            assert main(argv) == 0
            assert bp.spectral._plan.cache_info().misses - misses == built
        capsys.readouterr()


def _nudged(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


class TestScanRule:
    """load_config checks a scan with the engines' own rule, on the SI
    delays RunConfig hands them: a scan it accepts, the engines accept."""

    # This step passed a bound computed in fs and fails the engines' bound in seconds.
    BOUNDARY_NM, BOUNDARY_STEP_FS = 770.2791534208636, 0.5138749377216579

    def test_boundary_step_exits_one_naming_the_field(self, tmp_path, capsys):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["wavelength_nm"] = self.BOUNDARY_NM
        cfg["filter"]["center_nm"] = 2.0 * self.BOUNDARY_NM
        cfg["scan"]["tau_step_fs"] = self.BOUNDARY_STEP_FS
        out = tmp_path / "scan.csv"
        with mock.patch.object(cli, "_pump_amplitude", side_effect=AssertionError):
            assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: scan.tau_step_fs: step 0.513875 fs exceeds 0.2 of the "
                       "pump period 2.56937 fs; fringes would be undersampled\n")
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(wavelength_nm=st.floats(300.0, 900.0), step_ulps=st.integers(-4, 4),
           reach_ulps=st.integers(-4, 4), end=st.sampled_from(["start", "stop"]))
    def test_accepted_scan_passes_the_engines_checks(self, wavelength_nm, step_ulps,
                                                     reach_ulps, end):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["wavelength_nm"] = wavelength_nm
        cfg["filter"]["center_nm"] = 2.0 * wavelength_nm
        cfg["grids"]["spectral_points"] = 65
        period_fs = 2.0 * math.pi / bp.units.omega_from_wavelength(wavelength_nm * NM) / FS
        step = _nudged(bp.interferometer.MAX_STEP_FRACTION * period_fs, step_ulps)
        with tempfile.TemporaryDirectory() as tmp:
            cfg["scan"] = {"tau_start_fs": 0.0, "tau_stop_fs": 0.0, "tau_step_fs": 0.1}
            spacing = load_config(write_config(Path(tmp), cfg)).state.spectral.grid.spacing
            reach = _nudged(bp.interferometer.MAX_REACH_FRACTION * math.pi / spacing / FS,
                            reach_ulps)
            # one end of a 10-step scan within a few ulps of the reach bound
            start, stop = (-reach, -reach + 10.0 * step) if end == "start" else (
                reach - 10.0 * step, reach)
            cfg["scan"] = {"tau_start_fs": start, "tau_stop_fs": stop, "tau_step_fs": step}
            try:
                run = load_config(write_config(Path(tmp), cfg))
            except cli.ConfigError as exc:
                event(f"refused: {str(exc).split(':')[0]}")
                return
        event("accepted")
        axis = bp.interferometer._scan_axis(run.state, run.tau_start, run.tau_stop, run.tau_step)
        assert axis.size >= 10


class TestConfigValidation:
    @pytest.mark.parametrize("mutate, needle", [
        (lambda c: c["pump"].pop("wavelength_nm"), "pump.wavelength_nm"),
        # the pump frequency 2 pi c / 1e-309 m overflows to inf
        (lambda c: c["pump"].update(wavelength_nm=1e-300), "config error: pump.wavelength_nm: "),
        (lambda c: c["scan"].update(tau_step_fs=0.5), "scan.tau_step_fs"),
        (lambda c: c["scan"].update(tau_start_fs=10.0, tau_stop_fs=-10.0),
         "config error: scan.tau_stop_fs: must not precede tau_start_fs"),
        (lambda c: c["grids"].update(spatial_points=256), "grids.spatial_points"),
        (lambda c: c["filter"].update(bandwidth_nm=900.0), "filter.bandwidth_nm"),
        (lambda c: c.update(engine="quantum"), "engine"),
        (lambda c: c["pump"]["spatial_profile"].update(kind="bessel"),
         "pump.spatial_profile.kind"),
    ])
    def test_invalid_configs_exit_one(self, tmp_path, capsys, mutate, needle):
        cfg = load_bundled("default_mzi")
        mutate(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path)]) == 1
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge_int"])
    @pytest.mark.parametrize("section, key", [
        ("pump", "wavelength_nm"),
        ("scan", "tau_stop_fs"),
        ("filter", "bandwidth_nm"),
        ("pump.spatial_profile", "waist_mm"),
    ])
    def test_non_finite_values_exit_one(self, tmp_path, capsys, section, key, value):
        cfg = load_bundled("default_mzi")
        table = cfg
        for part in section.split("."):
            table = table[part]
        table[key] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("pump", "wavelength_nm"),
        ("filter", "center_nm"),
        ("filter", "bandwidth_nm"),
        ("pump.spatial_profile", "waist_mm"),
        ("grids", "spatial_halfwidth_mm"),
        ("scan", "tau_step_fs"),
    ])
    def test_values_that_underflow_exit_one(self, tmp_path, capsys, section, key):
        # 5e-324 nm (or mm, fs) is positive, but 0.0 in SI units
        cfg = load_bundled("default_mzi")
        table = cfg
        for part in section.split("."):
            table = table[part]
        table[key] = 5e-324
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}.{key}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        # a string outside the key's set
        ("engine", "quantum"),
        ("pump.spatial_profile.kind", "bessel"),
        ("filter.shape", "lorentzian"),
        ("interferometer.kind", "mzx"),
        ("output.format", "xml"),
        # a negative value of a key that must be positive in SI units
        ("pump.wavelength_nm", -405.0),
        ("pump.spatial_profile.waist_mm", -1.0),
        ("filter.center_nm", -810.0),
        ("filter.bandwidth_nm", -10.0),
        ("scan.tau_step_fs", -0.08),
        ("grids.spatial_halfwidth_mm", -3.0),
    ])
    def test_value_outside_the_key_rule_exits_one(self, tmp_path, capsys, field, value):
        cfg = load_bundled("default_mzi")
        *sections, key = field.split(".")
        table = cfg
        for part in sections:
            table = table[part]
        table[key] = value
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, field", [
        ("scan", "tau_step_fs", 1e-12, "scan.tau_step_fs"),
        ("scan", "tau_start_fs", -1e308, "scan.tau_step_fs"),  # the span overflows to inf
        ("scan", "tau_stop_fs", 200.0 + 400.0 / (cli.MAX_DELAYS - 1), "scan.tau_step_fs"),
        ("grids", "spectral_points", 10**15 + 1, "grids.spectral_points"),
        ("grids", "spatial_points", 10**15 + 1, "grids.spatial_points"),
        ("grids", "spectral_points", cli.MAX_GRID_POINTS + 2, "grids.spectral_points"),
    ], ids=["tiny_step", "inf_span", "one_delay_over", "spectral_huge", "spatial_huge",
            "spectral_one_over"])
    def test_oversize_scan_or_grid_exits_one(self, tmp_path, capsys, section, key, value,
                                             field):
        cfg = load_bundled("default_mzi")
        cfg[section][key] = value
        if key == "tau_start_fs":
            cfg["scan"]["tau_stop_fs"] = 1e308
        if key == "tau_stop_fs":  # the bundled -200..200 fs axis, one step longer
            cfg["scan"]["tau_step_fs"] = 400.0 / (cli.MAX_DELAYS - 1)
        path = write_config(tmp_path, cfg)
        with pytest.raises(cli.ConfigError, match=field):
            load_config(path)
        out = tmp_path / "scan.csv"
        with mock.patch.object(cli, "_pump_amplitude", side_effect=AssertionError):
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("center_nm, bandwidth_nm", [(1e-200, 1e-201), (1e300, 10.0)],
                             ids=["center_squared_underflows", "center_squared_overflows"])
    def test_extreme_filter_center_exits_one(self, tmp_path, capsys, center_nm, bandwidth_nm):
        cfg = load_bundled("default_mzi")
        cfg["filter"].update(center_nm=center_nm, bandwidth_nm=bandwidth_nm)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: filter.center_nm: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shape, needle", [
        ("rectangular", "times the grid spacing"),
        ("gaussian", "rms_width must be positive with a finite nonzero square"),
    ])
    def test_filter_width_that_underflows_on_the_grid_exits_one(self, tmp_path, capsys,
                                                                shape, needle):
        # the angular width, 1.1e-320 rad/s, is positive, but its square is 0
        cfg = load_bundled("default_mzi")
        cfg["pump"]["wavelength_nm"] = 6.5e162
        cfg["filter"].update(center_nm=1.3e163, bandwidth_nm=1e-12, shape=shape)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: filter.bandwidth_nm: ")
        assert needle in err
        assert not out.exists()

    @pytest.mark.parametrize("scan, points, bound_fs", [
        ({"tau_start_fs": 27900.0, "tau_stop_fs": 28100.0, "tau_step_fs": 0.08}, 1025,
         "14006.5 fs"),
        ({"tau_start_fs": 0.0, "tau_stop_fs": 3000.0, "tau_step_fs": 0.2}, 65, "875.406 fs"),
        ({"tau_start_fs": -900.0, "tau_stop_fs": 0.0, "tau_step_fs": 0.2}, 65, "875.406 fs"),
    ], ids=["false_dip_at_28ps", "65_points_stop", "65_points_start"])
    def test_scan_past_the_grid_reach_exits_one(self, tmp_path, capsys, scan, points,
                                                bound_fs):
        # On 1025 points pi / h is 28.0 ps, where the engines agree on a false HOM dip.
        cfg = load_bundled("default_mzi")
        cfg["scan"] = scan
        cfg["grids"]["spectral_points"] = points
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        with mock.patch.object(cli, "_pump_amplitude", side_effect=AssertionError):
            assert main(["simulate", "--config", str(path), "--engine", "both",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: scan.tau_start_fs/tau_stop_fs: ")
        assert "grids.spectral_points" in err and bound_fs in err
        assert not out.exists()

    def test_scan_reach_bound_is_sharp(self, tmp_path):
        cfg = load_bundled("default_mzi")
        cfg["grids"]["spectral_points"] = 65
        spacing = load_config(write_config(tmp_path, cfg)).state.spectral.grid.spacing
        bound_fs = bp.interferometer.MAX_REACH_FRACTION * math.pi / spacing / FS
        cfg["scan"] = {"tau_start_fs": -10.0, "tau_stop_fs": bound_fs * (1.0 - 1e-9),
                       "tau_step_fs": 0.2}
        assert load_config(write_config(tmp_path, cfg)).tau_stop > 875.4 * FS
        cfg["scan"]["tau_stop_fs"] = bound_fs * (1.0 + 1e-9)
        with pytest.raises(cli.ConfigError, match="grids.spectral_points"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("kind", ["gaussian", "hg1", "shifted_gaussian"])
    @pytest.mark.parametrize("section, key, value", [
        ("pump.spatial_profile", "waist_mm", 1e-310),
        ("grids", "spatial_halfwidth_mm", 1e300),
    ], ids=["subnormal_waist", "huge_halfwidth"])
    def test_waist_below_grid_spacing_exits_one(self, tmp_path, capsys, kind, section, key,
                                                value):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": kind, "waist_mm": 1.0}
        if kind == "shifted_gaussian":
            cfg["pump"]["spatial_profile"]["shift_mm"] = 0.5
        table = cfg
        for part in section.split("."):
            table = table[part]
        table[key] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: pump.spatial_profile.waist_mm: ")
        assert "grids.spatial_halfwidth_mm" in err and "grids.spatial_points" in err
        assert not out.exists()

    def test_waist_of_one_grid_spacing_accepted(self, tmp_path):
        cfg = load_bundled("default_mzi")
        cfg["grids"] = {"spatial_points": 5, "spectral_points": 129, "spatial_halfwidth_mm": 2.0}
        cfg["pump"]["spatial_profile"]["waist_mm"] = 1.0
        run = load_config(write_config(tmp_path, cfg))
        grid = bp.SpatialGrid(half_width=2.0 * MM, point_count=5)
        assert_pump(run, bp.gaussian_amplitude(grid, waist=1.0 * MM))
        cfg["pump"]["spatial_profile"]["waist_mm"] = 0.999
        with pytest.raises(cli.ConfigError, match="pump.spatial_profile.waist_mm"):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("shift_mm", [1e10, 1e300, 10.0, -10.0, 3.0, -2.99, -2.9, -1.5])
    def test_shift_off_the_grid_exits_one(self, tmp_path, capsys, shift_mm):
        # off the grid the sampled pump is zero (1e10) or cut off at the edge
        # (10); -2.99 keeps 51 % of |pump|^2 on the grid, -1.5 keeps 99.87 %
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {
            "kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": shift_mm}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: pump.spatial_profile.shift_mm: ")
        assert "grids.spatial_halfwidth_mm" in err
        assert not out.exists()

    def test_shift_inside_the_grid_accepted(self, tmp_path):
        # keeps 99.91 % of |pump|^2 on the +-3 mm grid
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {
            "kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": -1.45}
        run = load_config(write_config(tmp_path, cfg))
        assert_pump(run, bp.gaussian_amplitude(BUNDLED_GRID, waist=1.0 * MM, center=-1.45 * MM))

    @pytest.mark.parametrize("kind, waist_mm, kept", [
        ("gaussian", 100.0, "4.784%"), ("shifted_gaussian", 3.0, "95.450%"),
        ("hg1", 2.0, "97.071%"),
    ])
    def test_pump_wider_than_the_grid_exits_one(self, tmp_path, capsys, kind, waist_mm, kept):
        cfg = load_bundled("default_mzim")
        cfg["pump"]["spatial_profile"] = {"kind": kind, "waist_mm": waist_mm}
        if kind == "shifted_gaussian":
            cfg["pump"]["spatial_profile"]["shift_mm"] = 0.1
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: pump.spatial_profile.waist_mm: ")
        assert f"keeps {kept} of |pump|^2" in err and "grids.spatial_halfwidth_mm" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["gaussian", "hg1"])
    def test_pump_filling_the_grid_accepted(self, tmp_path, kind):
        # the widest waist the benchmark draws, on the bundled +-3 mm grid
        cfg = load_bundled("default_mzim")
        cfg["pump"]["spatial_profile"] = {"kind": kind, "waist_mm": 1.2}
        sample = bp.gaussian_amplitude if kind == "gaussian" else bp.hermite_gauss1_amplitude
        assert_pump(load_config(write_config(tmp_path, cfg)), sample(BUNDLED_GRID, waist=1.2 * MM))

    @pytest.mark.parametrize("wavelength_nm, center_nm", [
        (1e300, 810.0), (1e308, 810.0), (405.0, 815.01), (405.0, 804.99),
    ], ids=["huge_pump", "doubled_pump_overflows", "centre_above_band", "centre_below_band"])
    def test_filter_off_the_degenerate_wavelength_exits_one(self, tmp_path, capsys,
                                                            wavelength_nm, center_nm):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["wavelength_nm"] = wavelength_nm
        cfg["filter"]["center_nm"] = center_nm
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: filter.center_nm: ")
        assert "pump.wavelength_nm" in err
        assert not out.exists()

    @pytest.mark.parametrize("center_nm", [805.0, 815.0])
    def test_filter_edge_on_the_degenerate_wavelength_accepted(self, tmp_path, center_nm):
        # the bundled 10 nm passband, its edge moved onto 2 x 405 nm
        cfg = load_bundled("default_mzi")
        cfg["filter"]["center_nm"] = center_nm
        run = load_config(write_config(tmp_path, cfg))
        width = bp.units.bandwidth_to_angular(center_nm * NM, 10.0 * NM)
        density = bp.SpectralDensity(bp.Rectangular(width))
        assert run.state.spectral.density == density
        assert run.state.spectral.grid == bp.default_frequency_grid(density, point_count=1025)

    def test_sizes_at_the_ceilings_accepted(self, tmp_path):
        cfg = load_bundled("default_mzi")
        cfg["scan"]["tau_step_fs"] = 400.0 / (cli.MAX_DELAYS - 1)
        cfg["grids"].update(spatial_points=cli.MAX_GRID_POINTS,
                            spectral_points=cli.MAX_GRID_POINTS)
        run = load_config(write_config(tmp_path, cfg))
        tau = bp.interferometer.tau_axis(run.tau_start, run.tau_stop, run.tau_step)
        assert tau.size == cli.MAX_DELAYS
        assert run.state.spectral.grid.point_count == cli.MAX_GRID_POINTS
        assert run.state.spatial.grid.point_count == cli.MAX_GRID_POINTS

    @pytest.mark.parametrize("value", [None, [1], True, "x"],
                             ids=["null", "list", "bool", "string"])
    @pytest.mark.parametrize("key", ["waist_mm", "shift_mm"])
    def test_wrong_type_profile_numbers_exit_one(self, tmp_path, capsys, key, value):
        cfg = load_bundled("default_mzi")
        profile = {"kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": 0.5}
        profile[key] = value
        cfg["pump"]["spatial_profile"] = profile
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert f"pump.spatial_profile.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_absent_waist_defaults_to_one_mm(self, tmp_path):
        cfg = load_bundled("default_mzi")
        for profile, pump in [
                ({"kind": "gaussian"}, bp.gaussian_amplitude(BUNDLED_GRID, waist=1.0 * MM)),
                ({"kind": "hg1"}, bp.hermite_gauss1_amplitude(BUNDLED_GRID, waist=1.0 * MM)),
                ({"kind": "shifted_gaussian", "shift_mm": 0.3},
                 bp.gaussian_amplitude(BUNDLED_GRID, waist=1.0 * MM, center=0.3 * MM))]:
            cfg["pump"]["spatial_profile"] = profile
            assert_pump(load_config(write_config(tmp_path, cfg)), pump)

    @pytest.mark.parametrize("section", ["pump", "filter", "interferometer", "scan", "grids",
                                         "output"])
    @pytest.mark.parametrize("value, message", [
        (None, "missing required field"), (5, "expected dict, got int"),
        ([], "expected dict, got list")], ids=["missing", "int", "list"])
    def test_top_level_section_named_without_a_dot(self, tmp_path, capsys, section, value,
                                                   message):
        cfg = load_bundled("default_mzi")
        if value is None:
            del cfg[section]
        else:
            cfg[section] = value
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {section}: {message}\n"
        assert not out.exists()

    def test_absent_engine_runs_closed(self, tmp_path, capsys, recorded_grams):
        outputs = []
        for engine in ("closed", None):
            cfg = small_scan_config("default_mzim", engine=engine)
            if engine is None:
                del cfg["engine"]
            outputs.append(tmp_path / f"{engine}.csv")
            assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(outputs[-1])]) == 0
        capsys.readouterr()
        assert [g.engine for g in recorded_grams] == ["closed", "closed"]
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    @pytest.mark.parametrize("value, kind", [(5, "int"), (None, "NoneType"), (True, "bool")])
    def test_non_string_engine_exits_one(self, tmp_path, capsys, value, kind):
        cfg = load_bundled("default_mzi")
        cfg["engine"] = value
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err == f"config error: engine: expected str, got {kind}\n"

    @pytest.mark.parametrize("table", [
        None, "x_mm,re\nzero,one\n", "0.0,1.0\n0.5,1.0,0.0\n", "-1.0,1.0\n0.0,nan\n1.0,1.0\n",
        "0.5,1.0\n0.0,1.0\n-0.5,1.0\n", "10.0,1.0\n11.0,1.0\n",
        "-1.0,0.0\n0.0,0.0\n1.0,0.0\n", "0.0,1.0\n",
        "".join(f"{i / 10:.1f},1.0\n" for i in range(-50, 51)),
        "", "\n\n", "# x_mm,re\n# no rows\n",
    ], ids=["missing", "non_numeric", "ragged", "nan", "descending", "off_grid", "zero",
            "one_row", "cut_at_the_grid_edge", "empty", "blank_lines", "comments_only"])
    def test_unreadable_pump_table_exit_one(self, tmp_path, capsys, table):
        # one line: on a table without data rows np.loadtxt warned before it
        table_path = tmp_path / "pump.csv"
        if table is not None:
            table_path.write_text(table)
        cfg = small_scan_config("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pump.spatial_profile.path" in err
        assert err.startswith("config error: pump.spatial_profile.path: ") and err.count("\n") == 1
        assert not out.exists()

    def test_pump_table_is_read(self, tmp_path, capsys):
        table_path = tmp_path / "pump.csv"
        table_path.write_text("".join(
            f"{i / 10:.1f},{math.exp(-(i / 10) ** 2):.9f}\n" for i in range(-40, 41)))
        cfg = small_scan_config("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 1 + 301

    @pytest.mark.parametrize("edit", ["trailing_spaces", "tab_line", "whitespace_between_rows"])
    def test_whitespace_only_pump_table_line_is_skipped(self, tmp_path, capsys, edit):
        # np.loadtxt read such a line as a row of one column, and exited 1
        rows = [f"{i / 10:.1f},{math.exp(-(i / 10) ** 2):.9f}\n" for i in range(-30, 31)]
        edited = {"trailing_spaces": rows + ["  \n"], "tab_line": ["\t\n"] + rows,
                  "whitespace_between_rows": rows[:30] + [" \t \n"] + rows[30:]}[edit]
        written = []
        for name, lines in (("plain", rows), (edit, edited)):
            table_path = tmp_path / f"{name}.csv"
            table_path.write_text("".join(lines))
            cfg = small_scan_config("default_mzim")
            cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
            out = tmp_path / f"{name}-scan.csv"
            argv = ["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
            assert main(argv) == 0
            written.append(out.read_bytes())
        capsys.readouterr()
        assert written[1] == written[0]

    def test_pump_table_between_grid_nodes_rejected_by_load_config(self, tmp_path):
        # the bundled grid has nodes at 0 and 6/256 mm; the table is zero at both
        table_path = tmp_path / "pump.csv"
        table_path.write_text("0.001,0.0\n0.002,1.0\n0.003,0.0\n")
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        with pytest.raises(cli.ConfigError, match="^pump.spatial_profile.path: "):
            load_config(write_config(tmp_path, cfg))

    @pytest.mark.parametrize("table, message", [
        ("-0.001,0\n0,1\n0.001,0\n", "the table is nonzero at 1 of the spatial grid's nodes"),
        ("-0.03,0\n-0.0234375,1\n0,1\n0.001,0\n",
         "the table is nonzero at 2 of the spatial grid's nodes"),
        ("0.001,0.0\n0.002,1.0\n0.003,0.0\n",
         "cannot normalize a zero amplitude on the spatial grid"),
    ], ids=["one_node", "two_nodes", "no_node"])
    def test_pump_table_narrower_than_the_grid_exits_one(self, tmp_path, capsys, table,
                                                         message):
        # On one node the pump is a delta: alpha = |phi(0)|^2 dx = 1, and compare
        # printed an MZIM singles visibility of 1, not the vanishing fringe.
        table_path = tmp_path / "pump.csv"
        table_path.write_text(table)
        cfg = load_bundled("default_mzim")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["compare", "--config", str(path)]) == 1
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = captured.err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        assert errors[0].startswith(f"config error: pump.spatial_profile.path: {message}")
        if "nonzero" in message:
            assert "grids.spatial_halfwidth_mm" in errors[0] and "grids.spatial_points" in errors[0]
        assert not out.exists()

    def test_pump_table_on_three_grid_nodes_accepted(self, tmp_path):
        # as a Gaussian of waist one spacing, whose waist holds 3 nodes
        table_path = tmp_path / "pump.csv"
        table_path.write_text("-0.03,0\n-0.0234375,1\n0,1\n0.0234375,1\n0.03,0\n")
        cfg = load_bundled("default_mzim")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        run = load_config(write_config(tmp_path, cfg))
        assert np.count_nonzero(run.state.spatial.pump.values) == 3

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e160, 1e300])
    def test_pump_table_of_any_magnitude_gives_one_pump(self, tmp_path, scale):
        # |samples|^2 overflowed past 1e154, and exited 1 with a RuntimeWarning;
        # below 1e-150 it underflowed, and exited 1 calling the table zero
        pumps = []
        for factor in (1.0, scale):
            table_path = tmp_path / f"pump-{factor}.csv"
            table_path.write_text("".join(f"{x / 10!r},{factor * math.exp(-x * x / 100)!r}\n"
                                          for x in range(-40, 41)))
            cfg = load_bundled("default_mzim")
            cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
            pumps.append(load_config(write_config(tmp_path, cfg)).state.spatial.pump.values)
        np.testing.assert_allclose(pumps[1], pumps[0], rtol=1e-14, atol=0.0)

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("profile, section, key", [
        ({"kind": "gaussian", "wiast_mm": 0.3}, "pump.spatial_profile", "wiast_mm"),
        ({"kind": "gaussian", "shift_mm": 0.5}, "pump.spatial_profile", "shift_mm"),
        ({"kind": "hg1", "shift_mm": 0.5}, "pump.spatial_profile", "shift_mm"),
        ({"kind": "tabulated_file", "path": "pump.csv", "waist_mm": 1.0},
         "pump.spatial_profile", "waist_mm"),
        (None, "", "engnie"),
        (None, "pump", "waist_mm"),
        (None, "filter", "centre_nm"),
        (None, "interferometer", "delay_arm"),
        (None, "interferometer", "flip_arm"),
        (None, "scan", "tau_steps_fs"),
        (None, "grids", "spectral_pts"),
        (None, "output", "fromat"),
    ])
    def test_unknown_key_exits_one_naming_it(self, tmp_path, capsys, profile, section, key):
        cfg = load_bundled("default_mzi")
        if profile is not None:
            cfg["pump"]["spatial_profile"] = profile
        else:
            table = cfg
            for part in filter(None, section.split(".")):
                table = table[part]
            table[key] = "b"
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        field = f"{section}.{key}" if section else key
        assert capsys.readouterr().err.startswith(f"config error: {field}: unknown key; ")
        assert not out.exists()

    def test_every_unknown_key_of_a_section_is_named(self, tmp_path):
        cfg = load_bundled("default_mzim")
        cfg["interferometer"].update(delay_arm="a", flip_arm="a")
        with pytest.raises(cli.ConfigError, match="^interferometer.delay_arm, "
                           "interferometer.flip_arm: unknown key; expected kind$"):
            load_config(write_config(tmp_path, cfg))


class TestFields:
    """cli._fields, the one reader of a config section's keys."""

    def test_values_and_defaults(self):
        got = cli._fields({"a": 2, "b": "x", "d": {}}, "s",
                          a=float, b=str, c=cli._Key(int, 7), d=dict)
        assert got == {"a": 2.0, "b": "x", "c": 7, "d": {}}
        assert type(got["a"]) is float
        assert cli._fields({"c": 3}, "s", c=cli._Key(int, 7)) == {"c": 3}

    def test_every_unknown_key_is_named(self):
        with pytest.raises(cli.ConfigError,
                           match=r"^s\.x, s\.y: unknown key; expected a, c$"):
            cli._fields({"x": 1, "a": 1.0, "y": 2}, "s", a=float, c=cli._Key(int, 7))

    def test_missing_key_is_named(self):
        with pytest.raises(cli.ConfigError, match=r"^s\.b: missing required field$"):
            cli._fields({"a": 1.0}, "s", a=float, b=str)

    def test_top_level_field_has_no_dot(self):
        with pytest.raises(cli.ConfigError, match=r"^b: missing required field$"):
            cli._fields({}, "", b=dict)
        with pytest.raises(cli.ConfigError, match=r"^x: unknown key; expected b$"):
            cli._fields({"x": 1}, "", b=dict)

    @pytest.mark.parametrize("value, kind, got", [
        (True, int, "bool"), (True, float, "bool"), (3.0, int, "float"), ("3", float, "str"),
        ("3", cli._Key(int, 7), "str")])
    def test_mistyped_value_rejected(self, value, kind, got):
        name = (kind.kind if isinstance(kind, cli._Key) else kind).__name__
        with pytest.raises(cli.ConfigError, match=rf"^s\.n: expected {name}, got {got}$"):
            cli._fields({"n": value}, "s", n=kind)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(cli.ConfigError, match=r"^s\.x: must be a finite number$"):
            cli._fields({"x": value}, "s", x=float)


class TestProfileTable:
    """cli._PROFILES defines each pump-profile kind once: its keys, its parse,
    its on-grid shares and its sampler.  What load_config makes of each entry
    is pinned here."""

    KEYS = {"gaussian": ("waist_mm",), "hg1": ("waist_mm",),
            "shifted_gaussian": ("waist_mm", "shift_mm"), "tabulated_file": ("path",)}

    @staticmethod
    def pumps(tmp_path):
        """{kind: (profile, the library's pump on the bundled grid)}."""
        x = np.arange(-40, 41) / 10
        re, im = np.exp(-(x - 0.5) ** 2), 0.3 * np.exp(-(x + 0.4) ** 2)
        table = tmp_path / "pump.csv"
        table.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                                 for row in zip(x, re, im)))
        nodes = BUNDLED_GRID.positions() / MM
        tabulated = bp.SpatialAmplitude.from_samples(
            BUNDLED_GRID, np.interp(nodes, x, re, left=0.0, right=0.0)
            + 1j * np.interp(nodes, x, im, left=0.0, right=0.0))
        return {
            "gaussian": ({"kind": "gaussian", "waist_mm": 0.8},
                         bp.gaussian_amplitude(BUNDLED_GRID, waist=0.8 * MM)),
            "hg1": ({"kind": "hg1", "waist_mm": 0.8},
                    bp.hermite_gauss1_amplitude(BUNDLED_GRID, waist=0.8 * MM)),
            "shifted_gaussian": (
                {"kind": "shifted_gaussian", "waist_mm": 0.8, "shift_mm": -0.4},
                bp.gaussian_amplitude(BUNDLED_GRID, waist=0.8 * MM, center=-0.4 * MM)),
            "tabulated_file": ({"kind": "tabulated_file", "path": str(table)}, tabulated),
        }

    def test_every_kind_is_pinned(self):
        assert sorted(cli._PROFILES) == sorted(self.KEYS)

    @pytest.mark.parametrize("kind", sorted(KEYS))
    def test_loaded_pump_is_the_library_pump(self, tmp_path, kind):
        profile, amplitude = self.pumps(tmp_path)[kind]
        cfg = load_bundled("default_mzim")
        cfg["pump"]["spatial_profile"] = profile
        assert_pump(load_config(write_config(tmp_path, cfg)), amplitude)

    @pytest.mark.parametrize("kind", sorted(KEYS))
    def test_unknown_key_lists_the_entry_keys(self, tmp_path, kind):
        cfg = load_bundled("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": kind, "colour": "blue"}
        assert tuple(cli._PROFILES[kind].keys) == self.KEYS[kind]
        expected = ", ".join(("kind",) + self.KEYS[kind])
        with pytest.raises(cli.ConfigError) as info:
            load_config(write_config(tmp_path, cfg))
        assert str(info.value) == f"pump.spatial_profile.colour: unknown key; expected {expected}"

    @pytest.mark.parametrize("shift_mm", [0.0, -0.0, 0])
    def test_unshifted_gaussian_is_the_gaussian(self, tmp_path, shift_mm):
        # both kinds share one sampler; x - 0.0 is x
        pumps = []
        for profile in ({"kind": "gaussian", "waist_mm": 0.7},
                        {"kind": "shifted_gaussian", "waist_mm": 0.7, "shift_mm": shift_mm}):
            cfg = load_bundled("default_mzim")
            cfg["pump"]["spatial_profile"] = profile
            pumps.append(load_config(write_config(tmp_path, cfg)).state.spatial.pump)
        assert pumps[0].grid == pumps[1].grid
        assert np.array_equal(pumps[0].values, pumps[1].values)


class TestFileErrors:
    """A path that cannot be read or written exits 1 naming it, with no traceback."""

    @staticmethod
    def assert_exit_one(capsys, argv, needle):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err
        assert "Traceback" not in err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        self.assert_exit_one(capsys, ["simulate", "--config", str(tmp_path)], str(tmp_path))

    def test_analyze_input_is_a_directory(self, tmp_path, capsys):
        self.assert_exit_one(capsys, ["analyze", "--in", str(tmp_path)], str(tmp_path))

    @pytest.mark.parametrize("command", ["simulate", "analyze", "pump_table"])
    def test_input_that_is_not_utf8_text(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe{}")
        if command == "pump_table":
            cfg = small_scan_config("default_mzi")
            cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(path)}
            argv = ["simulate", "--config", str(write_config(tmp_path, cfg))]
            needle = f"config error: pump.spatial_profile.path: cannot read the pump table {path}"
        else:
            flag = {"simulate": "--config", "analyze": "--in"}[command]
            argv = [command, flag, str(path)]
            needle = (f"cannot read the {'config' if command == 'simulate' else 'input'} "
                      f"file {path}")
        self.assert_exit_one(capsys, argv, needle + ": not UTF-8 text")

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    def test_output_path_cannot_be_written(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "scan.csv" if where == "missing_directory" else tmp_path
        cfg = small_scan_config("default_mzi", output={"path": str(out), "format": "csv"})
        config = str(write_config(tmp_path, cfg))
        self.assert_exit_one(capsys, ["simulate", "--config", config],
                             f"output.path: cannot write {out}: ")
        self.assert_exit_one(capsys, ["simulate", "--config", config, "--out", str(out)],
                             f"output.path: cannot write {out}: ")


class TestSpectralRefinement:
    """Doubling grids.spectral_points moves every column by the quadrature
    error only.  From 1025 to 2049 points it measured 6.9e-6 (MZI singles),
    1.3e-7 (MZIM singles) and 9.2e-6 (coincidences), a quarter of that from
    2049 to 4097; the bound is about twice the largest.  A grid artefact,
    such as a scan near pi / h, moves a column by order 1."""

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_doubling_spectral_points(self, tmp_path, name):
        grams = []
        for points in (1025, 2049):
            cfg = load_bundled(name)
            cfg["grids"]["spectral_points"] = points
            run = load_config(write_config(tmp_path, cfg))
            grams.append(bp.scan(run.state, run.instrument, run.tau_start, run.tau_stop,
                                 run.tau_step))
        coarse, fine = grams
        for column in ("singles_port1", "singles_port2", "coincidences"):
            change = float(np.max(np.abs(getattr(coarse, column) - getattr(fine, column))))
            assert change < 2e-5, column


class TestInputsBuiltOnce:
    """load_config derives the pump frequency and the filter's angular width
    once; the commands read the state and instrument it built."""

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_each_conversion_runs_once(self, tmp_path, capsys, command):
        path = str(write_config(tmp_path, small_scan_config("default_mzim")))
        argv = {"simulate": ["simulate", "--config", path, "--engine", "both",
                             "--out", str(tmp_path / "scan.csv")],
                "compare": ["compare", "--config", path]}[command]
        with mock.patch.object(bp.units, "omega_from_wavelength",
                               wraps=bp.units.omega_from_wavelength) as omega, \
                mock.patch.object(bp.units, "bandwidth_to_angular",
                                  wraps=bp.units.bandwidth_to_angular) as width:
            assert main(argv) == 0
        capsys.readouterr()
        assert (omega.call_count, width.call_count) == (1, 1)

    def test_build_problem_returns_the_loaded_inputs(self, tmp_path):
        run = load_config(write_config(tmp_path, load_bundled("default_mzim")))
        state, icfg, sgrid, fgrid = cli.build_problem(run)
        assert (state, fgrid) == (run.state, run.state.spectral.grid)
        assert sgrid == BUNDLED_GRID
        assert run.instrument == bp.InterferometerConfig.mzim()
        # perfbench/checks.py reads the second value's kind and pump frequency
        assert icfg.kind == run.instrument.kind
        assert np.float64(icfg.pump_frequency).tobytes() == np.float64(
            run.state.pump_frequency).tobytes()


class TestEnergyCheck:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("trace", ["singles_port1", "coincidences"])
    def test_non_finite_rates_fail(self, trace, bad):
        rates = {"singles_port1": [1.0, 1.0], "singles_port2": [1.0, 1.0],
                 "coincidences": [1.0, 1.0]}
        rates[trace] = [1.0, bad]
        with pytest.raises(BiphotonError, match="non-finite"):
            _check_energy(bp.Interferogram(tau=[0.0, 1e-15], **rates))


    def test_sum_rule_violation_exits_two(self, tmp_path, capsys, monkeypatch):
        def lossy(cfg, *_args):
            tau = np.array([cfg.tau_start, cfg.tau_stop])
            return bp.Interferogram(tau=tau, singles_port1=[1.0, 1.0],
                                    singles_port2=[1.0, 0.9], coincidences=[1.0, 1.0])

        monkeypatch.setattr(cli, "_run_engine", lossy)
        path = write_config(tmp_path, small_scan_config("default_mzi"))
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("engine error: port intensities violate the lossless-model "
                              "sum rule by 1.000e-01")
        assert not out.exists()


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head`` does, ends a command
    with exit 1 and no traceback."""

    @pytest.mark.parametrize("command", ["compare", "analyze"])
    def test_closed_pipe_exits_one_quietly(self, tmp_path, capsys, command):
        path = write_config(tmp_path, small_scan_config("default_mzi"))
        argv = ["compare", "--config", str(path)]
        if command == "analyze":
            out = tmp_path / "scan.csv"
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            capsys.readouterr()
            argv = ["analyze", "--in", str(out)]
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "biphoton.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestUsageErrors:
    """A bad command line exits 1, the code of every input error; 2 stays
    the engine-failure code.  --help exits 0."""

    @pytest.mark.parametrize("argv, needle", [
        ([], "required: command"),
        (["simulate"], "required: --config"),
        (["analyze"], "required: --in"),
        (["simulate", "--config", "cfg.json", "--engine", "quantum"], "invalid choice: 'quantum'"),
        (["analyze", "--in", "scan.csv", "--engine", "both"], "invalid choice: 'both'"),
        (["transmogrify"], "invalid choice: 'transmogrify'"),
        (["compare", "--config", "cfg.json", "--out", "x.csv"], "unrecognized arguments"),
        # an option before the subcommand is named; argparse alone would take
        # its value for the subcommand
        (["--engine", "quantum"], "argument --engine: goes after the subcommand"),
        (["--config", "x.json"], "argument --config: goes after the subcommand"),
        (["--engine", "closed", "simulate", "--config", "x.json"],
         "argument --engine: goes after the subcommand"),
        (["--window", "1:2", "analyze", "--in", "x.csv"],
         "argument --window: goes after the subcommand"),
        # a missing window value stays a usage error; the next option is not
        # taken for the value
        (["analyze", "--in", "x.csv", "--window"], "argument --window: expected one argument"),
        (["analyze", "--in", "x.csv", "--window", "--engine", "closed"],
         "argument --window: expected one argument"),
        (["analyze", "--in", "x.csv", "--window", "--engine=closed"],
         "argument --window: expected one argument"),
    ], ids=["no_command", "simulate_without_config", "analyze_without_in",
            "unknown_engine", "analyze_engine_both", "unknown_command", "unknown_option",
            "engine_before_command", "config_before_command", "engine_before_simulate",
            "window_before_analyze", "window_last", "window_before_engine",
            "window_before_engine_equals"])
    def test_exits_one(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: biphoton") and needle in err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["analyze", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: biphoton")


class TestParserReuse:
    """main builds its parser once per process; no call's options, output
    streams or exit leak into the next."""

    @staticmethod
    def scan(tmp_path, capsys, **overrides):
        """(config path, CSV path) of a small MZI scan written by simulate."""
        cfg = small_scan_config("default_mzi", **overrides)
        cfg["output"] = {"path": str(tmp_path / "from-config.csv"), "format": "csv"}
        path = str(write_config(tmp_path, cfg))
        assert main(["simulate", "--config", path]) == 0
        capsys.readouterr()
        return path, cfg["output"]["path"]

    def test_no_parser_after_the_first_call(self, tmp_path, capsys, monkeypatch):
        path, csv = self.scan(tmp_path, capsys)  # the warm-up call
        built = []

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            argparse.ArgumentParser.__init__(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert main(["simulate", "--config", path]) == 0
        assert main(["analyze", "--in", csv]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--engine", "quantum"])
        assert exit_info.value.code == 1
        capsys.readouterr()
        assert built == []

    def test_simulate_flags_do_not_carry_over(self, tmp_path, capsys):
        path, csv = self.scan(tmp_path, capsys)
        first = Path(csv).read_bytes()
        other = tmp_path / "both.csv"
        assert main(["simulate", "--config", path, "--engine", "both", "--out", str(other)]) == 0
        assert {line.rsplit(",", 1)[1] for line in other.read_text().splitlines()[1:]} == {
            "closed", "oracle"}
        Path(csv).unlink()
        # the config's engine (closed) and output.path again
        assert main(["simulate", "--config", path]) == 0
        capsys.readouterr()
        assert Path(csv).read_bytes() == first

    def test_analyze_window_does_not_carry_over(self, tmp_path, capsys):
        _, csv = self.scan(tmp_path, capsys)
        assert main(["analyze", "--in", csv]) == 0
        default = capsys.readouterr().out
        assert main(["analyze", "--in", csv, "--window", "-10:10"]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == [-10.0, 10.0]
        assert main(["analyze", "--in", csv]) == 0
        assert capsys.readouterr().out == default

    def test_usage_error_and_help_leave_the_next_call_unchanged(self, tmp_path, capsys):
        _, csv = self.scan(tmp_path, capsys)
        assert main(["analyze", "--in", csv]) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--in", csv, "--engine", "both"])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.startswith("usage: biphoton")
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: biphoton")
        assert main(["analyze", "--in", csv]) == 0
        assert capsys.readouterr().out == before


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        cfg = small_scan_config("default_mzi")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "biphoton.cli", "simulate",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_no_file_is_opened_in_the_locale_encoding(self, tmp_path):
        # every file the commands read or write names UTF-8 or is bytes; with
        # these flags an open that leaves the encoding to the locale raises
        table = tmp_path / "pump.csv"
        table.write_text("".join(f"{i / 10:.1f},{math.exp(-(i / 10) ** 2):.9f}\n"
                                 for i in range(-40, 41)))
        cfg = small_scan_config("default_mzim")
        configs = {}
        for name, fmt, profile in (("csv", "csv", None), ("json", "json", None),
                                   ("table", "csv", {"kind": "tabulated_file",
                                                     "path": str(table)})):
            cfg["output"] = {"path": str(tmp_path / f"{name}.{fmt}"), "format": fmt}
            if profile:
                cfg["pump"]["spatial_profile"] = profile
            configs[name] = str(write_config(tmp_path, cfg, f"{name}-run.json"))
        commands = [["simulate", "--config", configs[name]] for name in configs]
        commands += [["analyze", "--in", str(tmp_path / "csv.csv")],
                     ["compare", "--config", configs["csv"]]]
        script = ("from biphoton.cli import main\n"
                  f"for argv in {commands!r}:\n    assert main(argv) == 0, argv\n")
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", script], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
