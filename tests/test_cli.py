import json
import math
import subprocess
import sys

import numpy as np
import pytest

import biphoton as bp
from biphoton import cli
from biphoton.cli import _check_energy, bundled_config_path, load_config, main
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
    def test_bundled_engine_both_full_size(self, tmp_path, capsys, monkeypatch, name):
        grams = []

        def recording(*args):
            grams.append(run_engine(*args))
            return grams[-1]

        run_engine = cli._run_engine
        monkeypatch.setattr(cli, "_run_engine", recording)
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
