import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import biphoton as bp
from biphoton import cli
from biphoton.cli import CSV_HEADER, _check_energy, bundled_config_path, load_config, main
from biphoton.errors import BiphotonError

from conftest import COINCIDENCE_PERIOD, SINGLES_PERIOD

FS = 1e-15


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

    def test_analyze_window_flag(self, tmp_path, capsys):
        cfg = small_scan_config("default_mzi")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "mzi.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        # leading '-' needs the '=' form, as usual for argparse options
        rep = run_analyze(capsys, out, "--window=-10:10")
        assert rep["window"] == [-10.0, 10.0]

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
    """Raised in place of building the problem once a config is accepted."""


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
            with mock.patch.object(cli, "build_problem", side_effect=_Accepted):
                try:
                    rc, err = run_main_quietly(["simulate", "--config", str(path)])
                except _Accepted:
                    return
        assert rc == 1
        assert err.startswith("config error: ")
        assert "Traceback" not in err


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

    def test_compare_rejects_engine_both(self, tmp_path, capsys):
        path = write_config(tmp_path, small_scan_config("default_mzi", engine="both"))
        assert main(["compare", "--config", str(path)]) == 1


class TestConfigValidation:
    @pytest.mark.parametrize("mutate, needle", [
        (lambda c: c["pump"].pop("wavelength_nm"), "pump.wavelength_nm"),
        (lambda c: c["scan"].update(tau_step_fs=0.5), "scan.tau_step_fs"),
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
        with mock.patch.object(cli, "build_problem", side_effect=AssertionError):
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_sizes_at_the_ceilings_accepted(self, tmp_path):
        cfg = load_bundled("default_mzi")
        cfg["scan"]["tau_step_fs"] = 400.0 / (cli.MAX_DELAYS - 1)
        cfg["grids"].update(spatial_points=cli.MAX_GRID_POINTS,
                            spectral_points=cli.MAX_GRID_POINTS)
        run = load_config(write_config(tmp_path, cfg))
        tau = bp.interferometer.tau_axis(run.tau_start, run.tau_stop, run.tau_step)
        assert tau.size == cli.MAX_DELAYS
        assert run.spectral_points == run.spatial_points == cli.MAX_GRID_POINTS

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
        cfg["pump"]["spatial_profile"] = {"kind": "hg1"}
        assert load_config(write_config(tmp_path, cfg)).profile_params["waist_mm"] == 1.0

    @pytest.mark.parametrize("table", [
        None, "x_mm,re\nzero,one\n", "0.0,1.0\n0.5,1.0,0.0\n", "-1.0,1.0\n0.0,nan\n1.0,1.0\n",
        "0.5,1.0\n0.0,1.0\n-0.5,1.0\n", "10.0,1.0\n11.0,1.0\n",
    ], ids=["missing", "non_numeric", "ragged", "nan", "descending", "off_grid"])
    def test_unreadable_pump_table_exit_one(self, tmp_path, capsys, table):
        table_path = tmp_path / "pump.csv"
        if table is not None:
            table_path.write_text(table)
        cfg = small_scan_config("default_mzi")
        cfg["pump"]["spatial_profile"] = {"kind": "tabulated_file", "path": str(table_path)}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert "pump.spatial_profile.path" in capsys.readouterr().err
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

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 1


class TestEnergyCheck:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("trace", ["singles_port1", "coincidences"])
    def test_non_finite_rates_fail(self, trace, bad):
        rates = {"singles_port1": [1.0, 1.0], "singles_port2": [1.0, 1.0],
                 "coincidences": [1.0, 1.0]}
        rates[trace] = [1.0, bad]
        with pytest.raises(BiphotonError, match="non-finite"):
            _check_energy(bp.Interferogram(tau=[0.0, 1e-15], **rates))


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
