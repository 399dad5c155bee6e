"""Command-line driver: config-driven scans, CSV/JSON output, analysis.

Commands:

    biphoton simulate --config cfg.json [--engine closed|oracle|both] [--out out.csv]
    biphoton analyze  --in out.csv [--window lo:hi] [--engine closed|oracle]
    biphoton compare  --config cfg.json

All config and output values at this boundary are human scale (nm, fs,
mm); load_config converts them to SI once and builds the engines' inputs.

Output contract: one record per engine per delay, engines paired at each
delay (closed before oracle).  CSV has the fixed header CSV_HEADER and
every number as ``%.9g``.  JSON is ``{"records": [...]}`` in the layout of
``json.dumps(..., indent=1)``, every number as its shortest repr.  Identical
configs produce byte-identical files.  Both are written as bytes, with
``\n`` line ends on every platform: one bytes %-template, the header or
framing and then a row per engine repeated per delay, formats the whole
file in one operation.  Files are read as UTF-8.

Input: ``analyze`` parses a scan CSV with one np.loadtxt call; a file it
refuses is read again line by line, so an error names the file line
(blank lines counted) and the column.

Exit codes: 0 success, 1 invalid command line, config or input schema,
2 engine failure.

``main`` builds its argument parser on its first call and reuses it on
every later one.  A process that runs one command pays for one build, as
before; a process that calls ``main`` once per command (the tests, the
benchmark) pays for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import analysis, modesim, units
from .errors import BiphotonError, UnderSampled
from .interferometer import (
    MZI,
    MZIM,
    Interferogram,
    InterferometerConfig,
    _axis_count,
    check_reach,
    check_step,
    scan,
    scan_configs,
)
from .spatial import (
    SpatialAmplitude,
    SpatialGrid,
    gaussian_amplitude,
    hermite_gauss1_amplitude,
)
from .spectral import (
    Gaussian,
    Rectangular,
    SpectralDensity,
    default_frequency_grid,
)
from .states import AntiCorrelated, CorrelatedPump, TwoPhotonState

__all__ = ["main", "RunConfig", "load_config", "bundled_config_path"]

CSV_HEADER = "tau_fs,singles_port1,singles_port2,coincidence,engine"
_COLUMNS = CSV_HEADER.split(",")
COINCIDENCE_MATCH_TOL = 1e-6
ENERGY_TOL = 1e-9
# Checked before anything is allocated: 40x the bundled delay count, 16x
# the largest bundled or benchmark grid.
MAX_DELAYS = 200_001
MAX_GRID_POINTS = 65_537

# Share of |pump|^2 the spatial grid must hold.  The state layer
# renormalises whatever the grid keeps, so a pump cut off at the grid
# edge would silently become another pump.
MIN_PUMP_ON_GRID = 0.999

_ENGINES = ("closed", "oracle", "both")
_GAUSS_FWHM = float(2.0 * np.sqrt(2.0 * np.log(2.0)))


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending field path."""


def bundled_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. 'default_mzi')."""
    return Path(resources.files("biphoton") / "configs" / f"{name}.json")


@dataclass(frozen=True)
class RunConfig:
    """A validated run in SI units: the engines' inputs, which load_config
    builds while it checks them, then the scan, engine and output settings.
    The state carries both grids, ``state.spatial.grid`` and
    ``state.spectral.grid``."""

    state: TwoPhotonState
    instrument: InterferometerConfig
    tau_start: float
    tau_stop: float
    tau_step: float
    engine: str
    output_path: str
    output_format: str


class _Key(NamedTuple):
    """A config key as _fields reads it: its kind, its default (None if it
    must be given), and its rule, if any: positive once converted to SI by
    ``unit`` (a positive value that underflows fails), or one of ``choices``."""

    kind: type  # float, int, str or dict
    default: object = None
    unit: Optional[float] = None
    choices: Tuple[str, ...] = ()


def _fields(section: dict, path: str, /, **declared) -> dict:
    """The keys of a config section, checked, as {key: value}.

    ``declared`` gives each key its _Key, or its leading fields: the kind
    alone, or ``(kind, default)``.  Raises ConfigError naming every key the
    section holds but does not declare, else the first declared key that is
    missing or not of its kind, else the first that breaks its rule.  A
    float is a JSON number that is finite as a float; a bool is no number.
    """
    def field(key):
        return f"{path}.{key}" if path else key

    unknown = [field(key) for key in section if key not in declared]
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown key; expected {', '.join(declared)}")
    rules = {key: _Key(*rule) if isinstance(rule, tuple) else _Key(rule)
             for key, rule in declared.items()}
    values = {}
    for key, (kind, default, _, _) in rules.items():
        if key not in section:
            if default is None:
                raise ConfigError(f"{field(key)}: missing required field")
            values[key] = default
            continue
        value = section[key]
        number = kind is float and isinstance(value, (int, float))
        if isinstance(value, bool) or not (number or isinstance(value, kind)):
            raise ConfigError(f"{field(key)}: expected {kind.__name__}, got {type(value).__name__}")
        if number:
            try:
                value = float(value)
            except OverflowError:  # an integer literal beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{field(key)}: must be a finite number")
        values[key] = value
    for key, (_, _, unit, choices) in rules.items():
        if unit is not None and not values[key] * unit > 0.0:
            raise ConfigError(f"{field(key)}: must be positive")
        if choices and values[key] not in choices:
            raise ConfigError(f"{field(key)}: must be one of {choices}, got {values[key]!r}")
    return values


def _read_text(path, what: str) -> str:
    """The UTF-8 text of a file; ConfigError naming ``what`` and the path if
    it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise ConfigError(f"cannot read the {what} {path}: {reason}")


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration into the engines' inputs.

    Each key's kind, default and own rule are declared once, in the _fields
    call that reads it (a pump profile's in its _PROFILES entry); the top
    level is read first.  The derived and cross-field checks that need no
    array run next, then the pump is sampled.  Raises ConfigError naming the field.
    """
    try:
        raw = json.loads(_read_text(path, "config file"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    top = _fields(raw, "", pump=dict, filter=dict, interferometer=dict, scan=dict,
                  engine=_Key(str, "closed", choices=_ENGINES), grids=dict, output=dict)

    pump = _fields(top["pump"], "pump", wavelength_nm=_Key(float, unit=units.NM),
                   spatial_profile=dict)
    wavelength_nm = pump["wavelength_nm"]
    pump_frequency = units.omega_from_wavelength(wavelength_nm * units.NM)
    if not math.isfinite(pump_frequency):
        raise ConfigError("pump.wavelength_nm: the pump frequency 2 pi c / wavelength "
                          "is not a finite number")
    profile = pump["spatial_profile"]
    # the kind alone first: it picks the entry that declares the other keys
    kind = _fields({key: profile[key] for key in _PROFILE_KIND if key in profile},
                   "pump.spatial_profile", **_PROFILE_KIND)["kind"]
    entry = _PROFILES[kind]
    params = _fields(profile, "pump.spatial_profile", **_PROFILE_KIND, **entry.keys)
    if entry.parse:
        params = entry.parse(params)

    filt = _fields(top["filter"], "filter", center_nm=_Key(float, unit=units.NM),
                   bandwidth_nm=_Key(float, unit=units.NM),
                   shape=_Key(str, choices=("rectangular", "gaussian")))
    center_nm, bandwidth_nm, shape = filt["center_nm"], filt["bandwidth_nm"], filt["shape"]
    if not bandwidth_nm < center_nm:
        raise ConfigError("filter.bandwidth_nm: must be below center_nm")
    try:  # center^2 is a Python float: it overflows, or underflows to 0
        width = units.bandwidth_to_angular(center_nm * units.NM, bandwidth_nm * units.NM)
    except (OverflowError, ZeroDivisionError):
        width = math.nan
    if not (math.isfinite(width) and width > 0.0):
        raise ConfigError("filter.center_nm: the angular bandwidth "
                          "2 pi c bandwidth_nm / center_nm^2 is not a finite positive number")
    # degenerate down-conversion: each photon carries twice the pump wavelength
    if not abs(center_nm - 2.0 * wavelength_nm) <= bandwidth_nm / 2.0:
        raise ConfigError(
            f"filter.center_nm: the passband {center_nm:g} +- {bandwidth_nm / 2.0:g} nm must "
            f"hold the degenerate wavelength 2 pump.wavelength_nm = {2.0 * wavelength_nm:g} nm")

    ikind = _fields(top["interferometer"], "interferometer",
                    kind=_Key(str, choices=(MZI, MZIM)))["kind"]

    scan_cfg = _fields(top["scan"], "scan", tau_start_fs=float, tau_stop_fs=float,
                       tau_step_fs=_Key(float, unit=units.FS))
    # the engines' operands: every scan check reads them, and RunConfig stores them
    tau_start, tau_stop, tau_step = (
        scan_cfg[key] * units.FS for key in ("tau_start_fs", "tau_stop_fs", "tau_step_fs"))
    if tau_stop < tau_start:
        raise ConfigError("scan.tau_stop_fs: must not precede tau_start_fs")
    try:
        delays = _axis_count(tau_start, tau_stop, tau_step)
    except ValueError:  # the arguments are checked above: the span overflows
        delays = math.inf
    if delays > MAX_DELAYS:
        raise ConfigError(
            f"scan.tau_step_fs: the scan would exceed {MAX_DELAYS} delays")
    try:
        check_step(tau_step, pump_frequency)
    except UnderSampled as exc:
        raise ConfigError(f"scan.tau_step_fs: {exc}") from None

    grids = _fields(top["grids"], "grids", spatial_points=int, spectral_points=int,
                    spatial_halfwidth_mm=_Key(float, unit=units.MM))
    spatial_points, spectral_points = grids["spatial_points"], grids["spectral_points"]
    halfwidth_mm = grids["spatial_halfwidth_mm"]
    for label, n in (("spatial_points", spatial_points), ("spectral_points", spectral_points)):
        if n < 3 or n % 2 == 0:
            raise ConfigError(f"grids.{label}: must be an odd integer >= 3, got {n}")
        if n > MAX_GRID_POINTS:
            raise ConfigError(f"grids.{label}: must not exceed {MAX_GRID_POINTS}, got {n}")
    try:  # a width whose square underflows: Gaussian rejects it here
        density = SpectralDensity(Rectangular(width) if shape == "rectangular"
                                  # the configured bandwidth is the FWHM of a Gaussian density
                                  else Gaussian(width / _GAUSS_FWHM))
        frequency_grid = default_frequency_grid(density, point_count=spectral_points)
        if shape == "rectangular":  # Rectangular.sample judges width times grid spacing
            density.sample(frequency_grid)
    except ValueError as exc:
        raise ConfigError(f"filter.bandwidth_nm: {exc}") from None
    try:
        check_reach(tau_start, tau_stop, frequency_grid)
    except UnderSampled as exc:
        raise ConfigError(f"scan.tau_start_fs/tau_stop_fs: {exc}; raise grids.spectral_points")
    spacing_mm = 2.0 * halfwidth_mm / (spatial_points - 1)
    if "waist_mm" in entry.keys and not params["waist_mm"] >= spacing_mm:
        raise ConfigError(
            f"pump.spatial_profile.waist_mm: {params['waist_mm']:g} is below one spatial grid "
            f"spacing, 2 grids.spatial_halfwidth_mm / (grids.spatial_points - 1) = "
            f"{spacing_mm:g} mm")
    for field, kept in entry.on_grid(params, halfwidth_mm):
        if not kept >= MIN_PUMP_ON_GRID:
            raise ConfigError(
                f"pump.spatial_profile.{field}: the spatial grid, |x| <= "
                f"grids.spatial_halfwidth_mm = {halfwidth_mm:g} mm, keeps {kept:.3%} of "
                f"|pump|^2; at least {MIN_PUMP_ON_GRID:.1%} must lie on it")

    output = _fields(top["output"], "output", path=str,
                     format=_Key(str, choices=("csv", "json")))

    sgrid = SpatialGrid(half_width=halfwidth_mm * units.MM, point_count=spatial_points)
    state = TwoPhotonState(spatial=CorrelatedPump(_pump_amplitude(kind, params, sgrid)),
                           spectral=AntiCorrelated(density, frequency_grid),
                           pump_frequency=pump_frequency)
    return RunConfig(
        state=state,
        instrument=InterferometerConfig(ikind),
        tau_start=tau_start,
        tau_stop=tau_stop,
        tau_step=tau_step,
        engine=top["engine"],
        output_path=output["path"],
        output_format=output["format"],
    )


def _pump_table(params: dict) -> dict:
    """The rows x_mm, re[, im] of a tabulated pump, checked, as {"table": rows}."""
    try:
        lines = _read_text(params["path"], "pump table").split("\n")
    except ConfigError as exc:
        raise ConfigError(f"pump.spatial_profile.path: {exc}") from None
    # np.loadtxt reads a whitespace-only line as a row, and warns on no rows
    rows = [line for line in lines if line.split("#")[0].strip()]
    if not rows:
        raise ConfigError(
            f"pump.spatial_profile.path: the table {params['path']} has no data rows")
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"pump.spatial_profile.path: cannot read the table: {exc}") from None
    if table.shape[1] not in (2, 3):
        raise ConfigError(
            "pump.spatial_profile.path: need columns x_mm,re[,im] in the table")
    if not np.all(np.isfinite(table)):
        raise ConfigError("pump.spatial_profile.path: the table holds a non-finite number")
    if not np.all(np.diff(table[:, 0]) > 0.0):  # np.interp needs increasing x
        raise ConfigError("pump.spatial_profile.path: x_mm must increase from row to row")
    return {"table": table}


def _gaussian_on_grid(params: dict, half: float):
    """Shares of |exp(-(x - s)^2 / waist^2)|^2 on [-half, half], centred, then shifted."""
    r = math.sqrt(2.0) / params["waist_mm"]
    return [(field, 0.5 * (math.erf(r * (half - s)) + math.erf(r * (half + s))))
            for field, s in (("waist_mm", 0.0), ("shift_mm", params.get("shift_mm", 0.0)))]


def _hg1_on_grid(params: dict, half: float):
    """Share of |x exp(-x^2 / waist^2)|^2 on [-half, half]."""
    a = 2.0 * half / params["waist_mm"]
    return [("waist_mm", math.erf(a / math.sqrt(2.0))
             - math.sqrt(2.0 / math.pi) * a * math.exp(-0.5 * a * a))]


def _table_on_grid(params: dict, half: float):
    """Share of the table's own trapezoid norm held by its rows with |x_mm| <= half."""
    table = params["table"]
    x = table[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked through the total
        values = table[:, 1:] / np.max(np.abs(table[:, 1:]))
        gaps = np.diff(x)
        cells = np.concatenate([gaps, [0.0]]) + np.concatenate([[0.0], gaps])
        power = 0.5 * cells * np.sum(values**2, axis=1)
        total = float(np.sum(power))
    if not 0.0 < total < math.inf:
        raise ConfigError("pump.spatial_profile.path: the table's norm sum |re + i im|^2 dx "
                          "is not a finite positive number")
    return [("path", float(np.sum(power[np.abs(x) <= half])) / total)]


def _gaussian(params: dict, grid: SpatialGrid) -> SpatialAmplitude:
    return gaussian_amplitude(grid, waist=params["waist_mm"] * units.MM,
                              center=params.get("shift_mm", 0.0) * units.MM)


def _tabulated(params: dict, grid: SpatialGrid) -> SpatialAmplitude:
    table = params["table"]
    x = grid.positions() / units.MM
    real = np.interp(x, table[:, 0], table[:, 1], left=0.0, right=0.0)
    imag = (np.interp(x, table[:, 0], table[:, 2], left=0.0, right=0.0)
            if table.shape[1] == 3 else 0.0)
    samples = real + 1j * imag
    nodes = np.count_nonzero(samples)
    if 0 < nodes < 3:  # as for a waist below one spacing; a waist of one holds 3 nodes
        raise ConfigError(
            f"pump.spatial_profile.path: the table is nonzero at {nodes} of the spatial grid's "
            f"nodes, 2 grids.spatial_halfwidth_mm / (grids.spatial_points - 1) = "
            f"{grid.spacing / units.MM:g} mm apart; at least 3 must carry it")
    try:
        return SpatialAmplitude.from_samples(grid, samples)
    except ValueError as exc:  # the table is zero on the grid
        raise ConfigError(f"pump.spatial_profile.path: {exc} on the spatial grid") from None


class _Profile(NamedTuple):
    """A pump-profile kind: one entry of _PROFILES."""

    keys: dict  # the section's keys besides "kind", declared as _fields takes them
    on_grid: Callable[[dict, float], list]  # (field, share of |pump|^2 kept), checked in order
    sample: Callable[[dict, SpatialGrid], SpatialAmplitude]  # the pump on the grid
    parse: Optional[Callable[[dict], dict]] = None  # the read keys to params, if a file is read


_WAIST = _Key(float, 1.0, units.MM)  # waist_mm defaults to 1 mm

_PROFILES = {
    "gaussian": _Profile({"waist_mm": _WAIST}, _gaussian_on_grid, _gaussian),
    "hg1": _Profile({"waist_mm": _WAIST}, _hg1_on_grid, lambda params, grid:
                    hermite_gauss1_amplitude(grid, waist=params["waist_mm"] * units.MM)),
    "shifted_gaussian": _Profile({"waist_mm": _WAIST, "shift_mm": float},
                                 _gaussian_on_grid, _gaussian),
    "tabulated_file": _Profile({"path": str}, _table_on_grid, _tabulated, _pump_table),
}
_PROFILE_KIND = {"kind": _Key(str, choices=tuple(_PROFILES))}  # picks the _PROFILES entry


def _pump_amplitude(kind: str, params: dict, grid: SpatialGrid) -> SpatialAmplitude:
    """The pump sampled on the grid; ``params`` holds the config's millimetres."""
    return _PROFILES[kind].sample(params, grid)


# The instrument as perfbench/checks.py reads it, with the state's pump
# frequency: only build_problem makes one, and it goes with that accessor.
_BenchInstrument = NamedTuple("_BenchInstrument", [("kind", str), ("pump_frequency", float)])


def build_problem(cfg: RunConfig):
    """(state, instrument, spatial grid, frequency grid) of a loaded run.  An
    accessor for the benchmark (perfbench/checks.py, cold_start.py): the
    grids are the ones the state's sectors carry, and the instrument a
    ``_BenchInstrument``.  The CLI reads the fields itself."""
    return (cfg.state, _BenchInstrument(cfg.instrument.kind, cfg.state.pump_frequency),
            cfg.state.spatial.grid, cfg.state.spectral.grid)


def _run_engine(cfg: RunConfig, icfg: InterferometerConfig, engine: str) -> Interferogram:
    run = scan if engine == "closed" else modesim.oracle_scan
    return run(cfg.state, icfg, cfg.tau_start, cfg.tau_stop, cfg.tau_step)


def _check_energy(gram: Interferogram):
    # Interferogram itself rejects negative or non-finite rates (BiphotonError)
    total = gram.singles_port1 + gram.singles_port2
    worst = float(np.max(np.abs(total - 2.0)))
    if worst > ENERGY_TOL:
        raise BiphotonError(
            f"port intensities violate the lossless-model sum rule by {worst:.3e}")


def _row_values(grams: List[Interferogram]) -> list:
    """tau_fs, s1, s2, cc of each engine at each delay, as one row-major list."""
    columns = [c for g in grams
               for c in (g.tau / units.FS, g.singles_port1, g.singles_port2, g.coincidences)]
    return np.column_stack(columns).ravel().tolist()


def _write_output(path: str, fmt: str, grams: List[Interferogram]) -> None:
    """Write the file through one bytes %-template: the header or JSON
    framing, then a row per engine, repeated per delay.  Each number's
    digits go straight into the file's bytes, with no str to encode."""
    n = grams[0].tau.size
    if fmt == "csv":
        row = b"".join(b"%%.9g,%%.9g,%%.9g,%%.9g,%s\n" % g.engine.encode() for g in grams)
        template = CSV_HEADER.encode() + b"\n" + row * n
    else:
        # the layout of json.dumps({"records": [...]}, indent=1); %a of a
        # float is its repr, the shortest text json writes for it
        record = b",\n".join(
            b'  {\n   "tau_fs": %%a,\n   "singles_port1": %%a,\n   "singles_port2": %%a,\n'
            b'   "coincidence": %%a,\n   "engine": %s\n  }' % json.dumps(g.engine).encode()
            for g in grams)
        template = b'{\n "records": [\n' + b",\n".join([record] * n) + b"\n ]\n}\n"
    Path(path).write_bytes(template % tuple(_row_values(grams)))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, engine=args.engine or cfg.engine, output_path=args.out or cfg.output_path)

    engines = ["closed", "oracle"] if cfg.engine == "both" else [cfg.engine]
    grams = [_run_engine(cfg, cfg.instrument, e) for e in engines]
    for g in grams:
        _check_energy(g)
    try:
        _write_output(cfg.output_path, cfg.output_format, grams)
    except OSError as exc:
        raise ConfigError(f"output.path: cannot write {cfg.output_path}: {exc.strerror}") from None
    print(f"wrote {grams[0].tau.size} samples per engine to {cfg.output_path}")
    if len(grams) == 2:
        ds = float(np.max(np.abs(grams[0].singles_port1 - grams[1].singles_port1)))
        dc = float(np.max(np.abs(grams[0].coincidences - grams[1].coincidences)))
        print(f"engine agreement: max|d_singles|={ds:.3e} max|d_coincidence|={dc:.3e}")
    return 0


# One data row: the four numbers, then the engine label verbatim.
_ROW = np.dtype([("numbers", float, (4,)), ("engine", object)])


def _read_csv(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tau_fs, s1, s2, cc, engine) columns of a scan CSV.

    One np.loadtxt call parses every row and checks that each has five
    fields.  Lines are split as str.splitlines splits them; np.loadtxt
    strips \x1f as blank where float() refuses it, so a file holding one
    skips the fast parse, as does a file without data rows (np.loadtxt
    warns on those).  Whatever the fast parse refuses goes to the
    line-by-line reader, which names the first bad line and field.
    """
    text = _read_text(path, "input file")
    lines = text.splitlines()
    if lines[:1] == [CSV_HEADER] and any(lines[1:]) and "\x1f" not in text:
        try:
            rows = np.loadtxt(lines[1:], delimiter=",", comments=None, dtype=_ROW, ndmin=1)
        except ValueError:
            rows = None
        if rows is not None and np.isfinite(rows["numbers"]).all():
            return (*rows["numbers"].T, rows["engine"])
    return _read_csv_lines(lines, path)


def _read_csv_lines(lines: List[str], path):
    """The line-by-line reader: raise ConfigError naming the first bad line
    and field, or read what the fast parse refused (e.g. a whitespace-only line)."""
    # (line number in the file, text) of every non-blank line
    numbered = [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()]
    if not numbered or numbered[0][1] != CSV_HEADER:
        where, got = numbered[0] if numbered else (1, "<empty file>")
        raise ConfigError(
            f"line {where}: unexpected CSV header: got {got!r}, expected {CSV_HEADER!r}")
    if len(numbered) == 1:
        raise ConfigError(f"the input file {path} has no data rows after the CSV header")
    rows, engines = [], []
    for ln_no, ln in numbered[1:]:
        *cells, engine = ln.split(",")
        if len(cells) != 4:
            raise ConfigError(f"line {ln_no}: expected 5 fields, got {len(cells) + 1}")
        row = []
        for name, cell in zip(_COLUMNS, cells):
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(f"line {ln_no}: {name} is not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"line {ln_no}: {name} is not a finite number: {value}")
            row.append(value)
        rows.append(row)
        engines.append(engine)
    table = np.array(rows, dtype=float).reshape(-1, 4)
    return (*table.T, np.array(engines, dtype=object))


def _report_to_json(rep: analysis.VisibilityReport) -> dict:
    def fs(value):
        return None if value is None else value / units.FS

    return {
        "v1": rep.v1,
        "v12": rep.v12,
        "complementarity_sum": rep.complementarity_sum,
        "window": [rep.window[0] / units.FS, rep.window[1] / units.FS],
        "fringe_period_singles": fs(rep.fringe_period_singles),
        "fringe_period_coincidence": fs(rep.fringe_period_coincidence),
        "hom_fwhm": fs(rep.hom_fwhm),
    }


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    try:
        lo, hi = (float(bound) * units.FS for bound in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(
            f"--window must look like 'lo:hi' in fs, with finite lo < hi, got {text!r}")
    return (lo, hi)


def cmd_analyze(args) -> int:
    taus_fs, s1, _s2, cc, engines = _read_csv(args.infile)
    if args.engine:
        mask = engines == args.engine
        if not mask.any():
            raise ConfigError(f"no rows for engine {args.engine!r}")
        taus_fs, s1, cc = taus_fs[mask], s1[mask], cc[mask]
    elif len(set(engines)) > 1:
        raise ConfigError(
            f"file contains engines {sorted(set(engines))}; select one with --engine")
    tau = taus_fs * units.FS
    rep = analysis.report(tau, s1, cc, window=_parse_window(args.window))
    print(json.dumps(_report_to_json(rep), indent=1))
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    if cfg.engine == "both":
        raise ConfigError("engine: compare needs a single engine ('closed' or 'oracle')")
    kinds = (MZI, MZIM)
    icfgs = [InterferometerConfig(kind) for kind in kinds]
    if cfg.engine == "closed":  # one envelope pair serves both instruments
        grams = scan_configs(cfg.state, icfgs, cfg.tau_start, cfg.tau_stop, cfg.tau_step)
    else:
        grams = [_run_engine(cfg, icfg, cfg.engine) for icfg in icfgs]
    # both engines scan the one axis the config gives, so the grams share it
    reps = analysis.reports(grams[0].tau, [gram.singles_port1 for gram in grams],
                            [gram.coincidences for gram in grams])
    results = {f"{kind}_report": _report_to_json(rep) for kind, rep in zip(kinds, reps)}
    delta = float(np.max(np.abs(grams[0].coincidences - grams[1].coincidences)))
    results["max_coincidence_delta"] = delta
    results["coincidence_identical"] = bool(delta <= COINCIDENCE_MATCH_TOL)
    print(json.dumps(results, indent=1))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subcommand parsers, that exit 1 on a bad
    command line: exit 2 is kept for engine failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused.

    Reuse is safe: ``parse_args`` leaves the parser as it was and returns a
    fresh Namespace, with the subcommand's defaults copied into it on each
    call.  Usage, help and error text go to the ``sys.stdout`` or
    ``sys.stderr`` of the moment they are printed, and the help formatter
    reads the terminal width each time it runs, so a redirected stream
    still captures them.  Nothing is built at import.

    The one trade-off: each subcommand's ``func`` default is the ``cmd_*``
    function bound at the first build, so a ``cmd_*`` name replaced later
    on the module is not the one ``main`` calls.
    """
    parser = _Parser(
        prog="biphoton",
        description="Simulate and analyse two-photon Mach-Zehnder interferograms")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a delay scan from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--engine", choices=list(_ENGINES), default=None,
                     help="override the engine given in the config")
    sim.add_argument("--out", default=None, help="override the output path")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="summarise a scan CSV as JSON")
    ana.add_argument("--in", dest="infile", required=True)
    ana.add_argument("--window", default=None, help="visibility window 'lo:hi' in fs")
    ana.add_argument("--engine", choices=["closed", "oracle"], default=None,
                     help="row subset to analyse when the file holds both engines")
    ana.set_defaults(func=cmd_analyze)

    cmp_ = sub.add_parser("compare", help="run both interferometer variants and compare")
    cmp_.add_argument("--config", required=True)
    cmp_.set_defaults(func=cmd_compare)
    return parser


def _window_joined(argv: List[str]) -> List[str]:
    """argv with ``--window -lo:hi`` written as ``--window=-lo:hi``.

    argparse reads a word that starts with '-' and is not a plain negative
    number as an option, so a window with lo < 0 would have no value.  A
    word that starts with one '-' and holds a ':' is a window value: no
    option name has a ':', and an option's '=' value comes after '--'."""
    out: List[str] = []
    for word in argv:
        if (out and out[-1] == "--window" and word.startswith("-")
                and not word.startswith("--") and ":" in word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        build_parser().error(f"argument {argv[0].split('=')[0]}: goes after the subcommand")
    args = build_parser().parse_args(_window_joined(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does.  Point stdout at
        # devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BiphotonError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
