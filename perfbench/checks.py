"""Checks on every command's output, and the reference for non-parity pumps.

A command fails when it exits nonzero or when any check on what it wrote
or printed fails.  The checks:

* simulate: header and row count (delays x engines), engine order, all
  values finite, the port sum rule s1 + s2 = 2, byte-identical output
  for the same config on every pass, engine agreement for ``--engine
  both``, and for pumps of no definite parity the oracle against
  ``1 - beta cos(w_p tau)/2 - beta E2(tau)/2`` (coincidences) and
  ``intensity_mzim`` (singles), with beta = Re pump_parity_overlap;
* analyze: singles visibility v1 >= 0.99 on MZI and flat on MZIM;
* compare: ``coincidence_identical`` and the same visibility bounds.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Dict, List, Tuple

import numpy as np

import biphoton as bp
from biphoton import cli, units
from biphoton.interferometer import tau_axis

CSV_HEADER = "tau_fs,singles_port1,singles_port2,coincidence,engine"
SUM_RULE_TOL = 1e-9
AGREEMENT_GATE = 1e-6
RESIDUAL_GATE = 1e-6
MZI_MIN_V1 = 0.99
# MZIM singles visibility is |alpha| = |phi(0)|^2 dx, which scales as
# 1/waist; 0.02 is the flatness bound at the bundled 1 mm waist.
MZIM_MAX_V1_MM = 0.02

_AGREEMENT = re.compile(r"max\|d_singles\|=(\S+) max\|d_coincidence\|=(\S+)")


def _rounding_slack(values: np.ndarray) -> np.ndarray:
    """Largest error of printing each value to 9 significant digits."""
    mag = np.abs(values)
    safe = np.where(mag > 0.0, mag, 1.0)
    return np.where(mag > 0.0, 0.5 * 10.0 ** (np.floor(np.log10(safe)) - 8), 0.0)


def _read_rows(path, fmt: str):
    """(columns [tau_fs, s1, s2, cc], engines, per-row sum-rule slack)."""
    text = path.read_text()
    if fmt == "json":
        records = json.loads(text)["records"]
        cols = np.array([[r["tau_fs"], r["singles_port1"], r["singles_port2"],
                          r["coincidence"]] for r in records], dtype=float).reshape(-1, 4).T
        return cols, [r["engine"] for r in records], np.zeros(cols.shape[1])
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"CSV header {lines[:1]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = np.array([[float(v) for v in r[:4]] for r in rows], dtype=float).reshape(-1, 4).T
    slack = _rounding_slack(cols[1]) + _rounding_slack(cols[2])
    return cols, [r[4] for r in rows], slack


class Checker:
    """Checks outputs of one workload; keeps first-pass digests and references."""

    def __init__(self, workload):
        self.workload = workload
        self.mzim_max_v1 = MZIM_MAX_V1_MM / workload.params["waist_mm"]
        self._digests: Dict[str, str] = {}
        self._references: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.engine_agreement = None
        self.reference_residual = None

    def check(self, command, stdout: str) -> List[str]:
        """Problems found in one successful command's output (empty if none)."""
        try:
            if command.kind == "simulate":
                return self._simulate(command, stdout)
            report = json.loads(stdout)
            if command.kind == "analyze":
                return self._visibility(command.instrument, report["v1"])
            problems = [] if report["coincidence_identical"] is True else [
                f"coincidence_identical is {report['coincidence_identical']!r}"]
            return (problems + self._visibility("mzi", report["mzi_report"]["v1"])
                    + self._visibility("mzim", report["mzim_report"]["v1"]))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _visibility(self, instrument: str, v1) -> List[str]:
        if instrument == "mzi" and not v1 >= MZI_MIN_V1:
            return [f"MZI v1 = {v1} below {MZI_MIN_V1}"]
        if instrument == "mzim" and not v1 <= self.mzim_max_v1:
            return [f"MZIM v1 = {v1} above {self.mzim_max_v1:.4f}"]
        return []

    def _simulate(self, command, stdout: str) -> List[str]:
        problems = []
        path = command.output
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self._digests.setdefault(str(path), digest) != digest:
            problems.append("output differs from the first pass for the same config")
        cols, engines, slack = _read_rows(path, path.suffix.lstrip("."))
        n_eng = len(command.engines)
        expected = self.workload.delays * n_eng
        if cols.shape[1] != expected:
            return problems + [f"{cols.shape[1]} rows, expected {expected}"]
        if engines != list(command.engines) * self.workload.delays:
            problems.append("engine column out of order")
        if not np.all(np.isfinite(cols)):
            return problems + ["non-finite values"]
        worst = float(np.max(np.abs(cols[1] + cols[2] - 2.0) - slack))
        if worst > SUM_RULE_TOL:
            problems.append(f"port sum rule off by {worst:.3e} beyond print rounding")

        if n_eng == 2:
            closed, oracle = cols[1:, 0::2], cols[1:, 1::2]
            from_file = float(np.max(np.abs(closed - oracle)))
            match = _AGREEMENT.search(stdout)
            if match is None:
                return problems + ["no engine agreement line printed"]
            printed = max(float(match.group(1)), float(match.group(2)))
            self.engine_agreement = max(self.engine_agreement or 0.0, printed)
            if max(printed, from_file) > AGREEMENT_GATE:
                problems.append(f"engines disagree by {max(printed, from_file):.3e}")
        if not command.parity_pump:
            residual = self._residual(command, cols)
            self.reference_residual = max(self.reference_residual or 0.0, residual)
            if not residual <= RESIDUAL_GATE:
                problems.append(f"oracle off the beta-scaled closed form by {residual:.3e}")
        return problems

    def _residual(self, command, cols: np.ndarray) -> float:
        """max|oracle - reference| over both singles ports and coincidences."""
        key = command.config
        if key not in self._references:
            self._references[key] = _reference(self.workload.configs[key])
        tau, ref = self._references[key]
        if np.max(np.abs(cols[0] * units.FS - tau)) > 1e-9 * np.max(np.abs(tau)):
            return float("inf")
        return float(np.max(np.abs(cols[1:] - ref)))


def _reference(config_path) -> Tuple[np.ndarray, np.ndarray]:
    """Delay axis and [s1, s2, cc] from the package's public closed-form pieces."""
    cfg = cli.load_config(config_path)
    state, icfg, _sgrid, fgrid = cli.build_problem(cfg)
    tau = tau_axis(cfg.tau_start, cfg.tau_stop, cfg.tau_step)
    beta = bp.pump_parity_overlap(state.spatial.pump).as_complex().real
    env = bp.EnvelopeEvaluator(bp.normalize(state.spectral.density, fgrid), fgrid)
    cc = (1.0 - 0.5 * beta * np.cos(icfg.pump_frequency * tau)
          - 0.5 * beta * env.second_order(tau))
    s1 = bp.intensity_mzim(state, icfg, tau, fgrid, port=1)
    s2 = bp.intensity_mzim(state, icfg, tau, fgrid, port=2)
    return tau, np.vstack([s1, s2, cc])
