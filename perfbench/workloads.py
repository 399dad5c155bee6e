"""Seeded inputs and the command list of one pass, for each workload.

The seed varies only source parameters: pump waist (0.8-1.2 mm), pump
shift (0.2-0.6 mm), filter bandwidth (8-12 nm), the tabulated pump
coefficients and the scan start offset (under one delay step).  Grid
sizes and delay counts are fixed, so the work in one pass does not
depend on the seed.  The program sees only the generated config files,
through ``--config``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from biphoton import cli

BUNDLED_STEP_FS = 0.08
BUNDLED_DELAYS = 5001
# engine_both scans the central +-50 fs only: the oracle costs about 1 ms
# per delay, and 1251 delays keep a command near one second, so a run
# holds enough commands for a steady median on a noisy machine.
BOTH_DELAYS = 1251
FINE_STEP_FS = 0.05
FINE_DELAYS = 801
FINE_GRIDS = {"spatial_points": 1025, "spectral_points": 4097, "spatial_halfwidth_mm": 3.0}
TABLE_POINTS = 241
TABLE_HALFWIDTH_MM = 3.0


@dataclass(frozen=True)
class Command:
    """One CLI call of a pass and what its output must look like."""

    kind: str                      # simulate | analyze | compare
    argv: Tuple[str, ...]
    config: str                    # key into Workload.configs
    instrument: str                # mzi | mzim
    engines: Tuple[str, ...] = ()  # engines a simulate writes
    output: Optional[Path] = None  # file a simulate writes
    reads: Tuple[Path, ...] = ()   # files the command reads
    parity_pump: bool = True       # False: check oracle rows against the beta-scaled closed form


@dataclass
class Workload:
    name: str
    delays: int
    configs: Dict[str, Path]
    params: dict
    commands: List[Command]
    # Share of the commands' time per kind of work, read off the traced run
    # (cos(outer) ~93 % of closed_sweep, the oracle ~95 % of engine_both,
    # oracle ~70 % and eigvalsh ~27 % of fine_pump_survey); see calibrate.
    probe_mix: Dict[str, float]

    @property
    def first_config(self) -> Path:
        return self.configs[self.commands[0].config]


def _scan(rng: random.Random, center_fs: float, step_fs: float, delays: int) -> dict:
    # The offset is a whole number of attoseconds, so every delay prints
    # exactly at 9 significant digits.  Stopping half a step past the last
    # delay keeps the count at ``delays`` whatever the rounding.
    start = round(center_fs + rng.randrange(int(round(step_fs * 1000))) * 1e-3, 3)
    stop = round(start + (delays - 1) * step_fs + 0.5 * step_fs, 4)
    return {"tau_start_fs": start, "tau_stop_fs": stop, "tau_step_fs": step_fs}


def _bundled(kind: str) -> dict:
    return json.loads(cli.bundled_config_path(f"default_{kind}").read_text())


def _write(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return path


def _bundled_configs(rng: random.Random, workdir: Path,
                     delays: int) -> Tuple[Dict[str, Path], dict]:
    params = {
        "waist_mm": round(rng.uniform(0.8, 1.2), 4),
        "bandwidth_nm": round(rng.uniform(8.0, 12.0), 3),
    }
    scan = _scan(rng, -0.5 * (delays - 1) * BUNDLED_STEP_FS, BUNDLED_STEP_FS, delays)
    params["tau_start_fs"] = scan["tau_start_fs"]
    configs = {}
    for kind in ("mzi", "mzim"):
        cfg = _bundled(kind)
        cfg["pump"]["spatial_profile"]["waist_mm"] = params["waist_mm"]
        cfg["filter"]["bandwidth_nm"] = params["bandwidth_nm"]
        cfg["scan"] = scan
        cfg["engine"] = "closed"
        cfg["output"] = {"path": str(workdir / f"{kind}.csv"), "format": "csv"}
        configs[kind] = _write(workdir / f"{kind}.json", cfg)
    return configs, params


def _closed_sweep(rng: random.Random, workdir: Path) -> Workload:
    configs, params = _bundled_configs(rng, workdir, BUNDLED_DELAYS)
    commands = []
    for kind, path in configs.items():
        csv = workdir / f"{kind}.csv"
        commands += [
            Command("simulate", ("simulate", "--config", str(path), "--engine", "closed"),
                    kind, kind, engines=("closed",), output=csv, reads=(path,)),
            Command("analyze", ("analyze", "--in", str(csv)), kind, kind, reads=(csv,)),
            Command("compare", ("compare", "--config", str(path)), kind, kind, reads=(path,)),
        ]
    return Workload("closed_sweep", BUNDLED_DELAYS, configs, params, commands, {"numpy": 1.0})


def _engine_both(rng: random.Random, workdir: Path) -> Workload:
    configs, params = _bundled_configs(rng, workdir, BOTH_DELAYS)
    commands = []
    for kind, path in configs.items():
        csv = workdir / f"{kind}.csv"
        commands += [
            Command("simulate", ("simulate", "--config", str(path), "--engine", "both"),
                    kind, kind, engines=("closed", "oracle"), output=csv, reads=(path,)),
            Command("analyze", ("analyze", "--in", str(csv), "--engine", "oracle"),
                    kind, kind, reads=(csv,)),
        ]
    return Workload("engine_both", BOTH_DELAYS, configs, params, commands, {"python": 1.0})


def _pump_table(rng: random.Random, path: Path) -> dict:
    """A smooth complex pump of no definite parity, as x_mm,re,im rows."""
    coeffs = {
        "waist_mm": round(rng.uniform(0.8, 1.2), 4),
        "center_mm": round(rng.uniform(-0.3, 0.3), 4),
        "linear": round(rng.uniform(-0.4, 0.4), 4),
        "quadratic": round(rng.uniform(-0.1, 0.1), 4),
        "imag": round(rng.uniform(0.1, 0.5), 4),
    }
    w = coeffs["waist_mm"]
    rows = []
    for i in range(TABLE_POINTS):
        x = -TABLE_HALFWIDTH_MM + 2.0 * TABLE_HALFWIDTH_MM * i / (TABLE_POINTS - 1)
        envelope = math.exp(-((x - coeffs["center_mm"]) / w) ** 2)
        re = envelope * (1.0 + coeffs["linear"] * x + coeffs["quadratic"] * x * x)
        im = coeffs["imag"] * x * math.exp(-(x / w) ** 2)
        rows.append(f"{x:.12g},{re:.12g},{im:.12g}")
    path.write_text("\n".join(rows) + "\n")
    return coeffs


def _fine_pump_survey(rng: random.Random, workdir: Path) -> Workload:
    waist = round(rng.uniform(0.8, 1.2), 4)
    shift = round(rng.uniform(0.2, 0.6), 4)
    bandwidth = round(rng.uniform(8.0, 12.0), 3)
    scan = _scan(rng, -20.0, FINE_STEP_FS, FINE_DELAYS)
    table = workdir / "pump_table.csv"
    coeffs = _pump_table(rng, table)
    params = {"waist_mm": waist, "shift_mm": shift, "bandwidth_nm": bandwidth,
              "tau_start_fs": scan["tau_start_fs"], "table": coeffs}
    profiles = {
        "hg1": ({"kind": "hg1", "waist_mm": waist}, "both"),
        "shifted": ({"kind": "shifted_gaussian", "waist_mm": waist, "shift_mm": shift}, "oracle"),
        "tabulated": ({"kind": "tabulated_file", "path": str(table)}, "oracle"),
    }
    configs, commands = {}, []
    for name, (profile, engine) in profiles.items():
        cfg = _bundled("mzim")
        cfg["pump"]["spatial_profile"] = profile
        cfg["filter"].update(bandwidth_nm=bandwidth, shape="gaussian")
        cfg["scan"] = scan
        cfg["engine"] = engine
        cfg["grids"] = dict(FINE_GRIDS)
        out = workdir / f"{name}-scan.json"
        cfg["output"] = {"path": str(out), "format": "json"}
        path = configs[name] = _write(workdir / f"{name}.json", cfg)
        reads = (path, table) if name == "tabulated" else (path,)
        engines = ("closed", "oracle") if engine == "both" else (engine,)
        commands.append(Command(
            "simulate", ("simulate", "--config", str(path), "--engine", engine),
            name, "mzim", engines=engines, output=out, reads=reads,
            parity_pump=name == "hg1"))
    return Workload("fine_pump_survey", FINE_DELAYS, configs, params, commands,
                    {"python": 0.7, "lapack": 0.3})


_BUILDERS = {
    "closed_sweep": _closed_sweep,
    "engine_both": _engine_both,
    "fine_pump_survey": _fine_pump_survey,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's configs for ``seed`` into ``workdir``."""
    return _BUILDERS[name](random.Random(seed), workdir)
