"""Closed-form singles and coincidence interferograms.

Rates are normalized so the incoherent background equals one.  With
E1/E2 the spectral envelopes and w_p the pump frequency:

    balanced interferometer (equal mirror parity in both arms):
        coincidences:  1 - (1/2) cos(w_p tau) - (1/2) E2(tau)
        singles:       1 -/+ cos(w_p tau / 2) E1(tau)        (two ports)

    mirror-unbalanced variant (one arm applies x -> -x):
        coincidences:  1 - (beta/2) cos(w_p tau) - (beta/2) E2(tau)
                       for a pure-parity pump, beta = +1 even / -1 odd
        singles:       1 -/+ |alpha| cos(w_p tau / 2 - phase) E1(tau)

alpha is the flip overlap of the reduced one-photon spatial operator and
beta the pump parity overlap.  The coincidence rate of the unbalanced
variant for an arbitrary-parity pump has no closed form here; use the
discrete-mode simulator for that case.

The singles of the balanced interferometer do not reference the spatial
sector at all, which is the computable face of their independence from
spatial coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import AsymmetricSpectrum, NonParityPump, UnderSampled
from .spectral import EnvelopeEvaluator, FrequencyGrid, default_frequency_grid, normalize
from .states import (
    AntiCorrelated,
    CorrelatedPump,
    TwoPhotonState,
    reduced_spatial_operator,
)
from .spatial import flip_overlap, pump_parity_overlap

__all__ = [
    "MZI",
    "MZIM",
    "InterferometerConfig",
    "Interferogram",
    "g2_mzi",
    "intensity_mzi",
    "intensity_mzim",
    "g2_mzim",
    "scan",
]

MZI = "mzi"
MZIM = "mzim"

PARITY_TOL = 1e-9
MAX_STEP_FRACTION = 0.2  # of the pump period, the scan resolution bound


def check_step(tau_step: float, pump_period: float) -> None:
    """Raise UnderSampled if the step exceeds MAX_STEP_FRACTION of the pump period.

    Both arguments are in the same unit, whichever the caller uses.
    """
    if tau_step > MAX_STEP_FRACTION * pump_period:
        raise UnderSampled(
            f"step {tau_step} exceeds {MAX_STEP_FRACTION} of the pump period "
            f"{pump_period:.6g}; fringes would be undersampled")


@dataclass(frozen=True)
class InterferometerConfig:
    """Interferometer kind, pump frequency and per-arm element placement.

    The kind is tied to the mirror counts: equal reflection parity in the
    two arms is the balanced instrument, unequal parity applies a single
    transverse flip.  ``delay_arm`` and ``flip_arm`` only matter to the
    discrete-mode simulator; the closed forms are assignment-independent.
    """

    kind: str
    pump_frequency: float
    mirror_counts: Tuple[int, int]
    delay_arm: str = "b"
    flip_arm: str = "b"

    def __post_init__(self):
        if self.kind not in (MZI, MZIM):
            raise ValueError(f"kind must be '{MZI}' or '{MZIM}'")
        if self.pump_frequency <= 0.0:
            raise ValueError("pump_frequency must be positive")
        a, b = self.mirror_counts
        if a < 0 or b < 0:
            raise ValueError("mirror counts must be nonnegative")
        parity_equal = (a - b) % 2 == 0
        if parity_equal != (self.kind == MZI):
            raise ValueError(
                "mirror parities must match the kind: equal parity is "
                f"'{MZI}', unequal is '{MZIM}' (got counts {self.mirror_counts})")
        for arm in (self.delay_arm, self.flip_arm):
            if arm not in ("a", "b"):
                raise ValueError("arms are labelled 'a' and 'b'")

    @classmethod
    def mzi(cls, pump_frequency: float, delay_arm: str = "b") -> "InterferometerConfig":
        return cls(MZI, pump_frequency, (3, 3), delay_arm=delay_arm)

    @classmethod
    def mzim(
        cls, pump_frequency: float, delay_arm: str = "b", flip_arm: str = "b"
    ) -> "InterferometerConfig":
        return cls(MZIM, pump_frequency, (3, 2), delay_arm=delay_arm, flip_arm=flip_arm)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "pump_frequency": self.pump_frequency,
            "mirror_counts": list(self.mirror_counts),
            "delay_arm": self.delay_arm,
            "flip_arm": self.flip_arm,
        }


@dataclass(frozen=True)
class Interferogram:
    """Sampled delay scan of normalized singles and coincidence rates."""

    tau: np.ndarray
    singles_port1: np.ndarray
    singles_port2: np.ndarray
    coincidences: np.ndarray
    config: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)
    engine: str = "closed"

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("tau", "singles_port1", "singles_port2", "coincidences"):
            arr = np.array(getattr(self, name), dtype=float)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError("all traces must have equal length")
            arr.setflags(write=False)
            arrays[name] = arr
        for name in ("singles_port1", "singles_port2", "coincidences"):
            if np.any(arrays[name] < -1e-9):
                raise ValueError(f"{name} contains negative rates")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


def _envelopes(state: TwoPhotonState, grid: Optional[FrequencyGrid]) -> EnvelopeEvaluator:
    if not isinstance(state.spectral, AntiCorrelated):
        raise ValueError(
            "closed forms require an anti-correlated spectral sector; "
            "use the discrete-mode engine for general spectra")
    g = grid or default_frequency_grid(state.spectral.density)
    return EnvelopeEvaluator(normalize(state.spectral.density, g), g)


def _check_kind(cfg: InterferometerConfig, expected: str):
    if cfg.kind != expected:
        raise ValueError(f"operation requires a '{expected}' configuration")


def _check_even(state: TwoPhotonState, env: EnvelopeEvaluator):
    if not state.spectral.density.is_even_on(env.grid):
        raise AsymmetricSpectrum("coincidence closed form assumes an even density")


def _signed_parity(state: TwoPhotonState) -> float:
    """beta for a pure-parity correlated pump: +1 even, -1 odd."""
    if not isinstance(state.spatial, CorrelatedPump):
        raise NonParityPump(
            "coincidence closed form needs a correlated pump; use the "
            "discrete-mode engine for general spatial sectors")
    beta = pump_parity_overlap(state.spatial.pump)
    if beta.magnitude < 1.0 - PARITY_TOL:
        raise NonParityPump(
            f"pump parity overlap magnitude {beta.magnitude:.6f} < 1; no "
            "closed form for arbitrary pump profiles -- use the "
            "discrete-mode engine")
    return float(np.sign(math.cos(beta.phase)))


def _singles_fringe(cfg: InterferometerConfig, tau, e1, alpha=None):
    """Fringe term f of the singles: port 1 carries 1 - f, port 2 1 + f.

    ``alpha`` is the flip overlap for the unbalanced variant and None for
    the balanced one.
    """
    phase = cfg.pump_frequency * tau / 2.0
    if alpha is None:
        return np.cos(phase) * e1
    return alpha.magnitude * np.cos(phase - alpha.phase) * e1


def _coincidences(cfg: InterferometerConfig, tau, e2, beta: float = 1.0):
    return 1.0 - 0.5 * beta * np.cos(cfg.pump_frequency * tau) - 0.5 * beta * e2


def _port(fringe, port: int):
    return 1.0 - fringe if port == 1 else 1.0 + fringe


def _like(tau, out):
    return float(out) if np.ndim(tau) == 0 else out


def g2_mzi(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau,
    frequency_grid: Optional[FrequencyGrid] = None,
):
    """Coincidence rate of the balanced interferometer.

    Requires an even spectral density; raises AsymmetricSpectrum otherwise
    because the closed form drops the odd sine moment.
    """
    _check_kind(cfg, MZI)
    env = _envelopes(state, frequency_grid)
    _check_even(state, env)
    tau_arr = np.asarray(tau, dtype=float)
    return _like(tau, _coincidences(cfg, tau_arr, env.second_order(tau_arr)))


def intensity_mzi(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau,
    frequency_grid: Optional[FrequencyGrid] = None,
    port: int = 1,
):
    """Singles rate at one output port of the balanced interferometer.

    Port 1 carries 1 - cos(w_p tau / 2) E1(tau), port 2 its mirror image;
    the two sum to 2 (lossless model).  Independent of the spatial sector
    by construction: nothing spatial is ever read.
    """
    _check_kind(cfg, MZI)
    env = _envelopes(state, frequency_grid)
    tau_arr = np.asarray(tau, dtype=float)
    return _like(tau, _port(_singles_fringe(cfg, tau_arr, env.first_order(tau_arr)), port))


def intensity_mzim(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau,
    frequency_grid: Optional[FrequencyGrid] = None,
    port: int = 1,
):
    """Singles rate of the mirror-unbalanced variant.

    The fringe term is weighted by the flip overlap of the reduced
    one-photon spatial operator: spatially incoherent light (the
    down-conversion default) gives alpha ~ 0 and an essentially flat trace,
    while a pure even (odd) transverse mode gives full fringes with phase
    0 (pi).
    """
    _check_kind(cfg, MZIM)
    env = _envelopes(state, frequency_grid)
    alpha = flip_overlap(reduced_spatial_operator(state))
    tau_arr = np.asarray(tau, dtype=float)
    fringe = _singles_fringe(cfg, tau_arr, env.first_order(tau_arr), alpha)
    return _like(tau, _port(fringe, port))


def g2_mzim(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau,
    frequency_grid: Optional[FrequencyGrid] = None,
):
    """Coincidence rate of the mirror-unbalanced variant, pure-parity pump.

    An even pump reproduces the balanced result exactly.  An odd pump
    flips the sign of both interference terms: the sinusoid shifts by pi
    at unchanged amplitude and the dip inverts into a peak.  (The flip of
    the dip term follows from the sign the flipped-arm amplitude acquires
    in the exchange pathway; the discrete-mode simulator confirms it
    independently.)  Arbitrary-parity pumps raise NonParityPump.
    """
    _check_kind(cfg, MZIM)
    beta = _signed_parity(state)
    env = _envelopes(state, frequency_grid)
    _check_even(state, env)
    tau_arr = np.asarray(tau, dtype=float)
    return _like(tau, _coincidences(cfg, tau_arr, env.second_order(tau_arr), beta))


def tau_axis(tau_start: float, tau_stop: float, tau_step: float) -> np.ndarray:
    """Inclusive uniform delay axis; a zero-width scan is a single point."""
    if tau_step <= 0.0:
        raise ValueError("tau_step must be positive")
    if tau_stop < tau_start:
        raise ValueError("tau_stop must not precede tau_start")
    count = int(math.floor((tau_stop - tau_start) / tau_step + 1e-9)) + 1
    return tau_start + tau_step * np.arange(count)


def _scan_axis(state: TwoPhotonState, cfg: InterferometerConfig, tau_start: float,
               tau_stop: float, tau_step: float) -> np.ndarray:
    """Delay axis of a scan by either engine, after the checks both make.

    Raises ValueError if state and configuration disagree on the pump
    frequency, and UnderSampled if the step does not resolve its fringe.
    """
    if abs(cfg.pump_frequency - state.pump_frequency) > 1e-9 * cfg.pump_frequency:
        raise ValueError("state and configuration disagree on the pump frequency")
    check_step(tau_step, 2.0 * math.pi / cfg.pump_frequency)
    return tau_axis(tau_start, tau_stop, tau_step)


def scan(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau_start: float,
    tau_stop: float,
    tau_step: float,
    frequency_grid: Optional[FrequencyGrid] = None,
) -> Interferogram:
    """Closed-form delay scan producing both singles ports and coincidences.

    The step must resolve the pump-frequency fringe: steps above one fifth
    of the pump period raise UnderSampled.  E1, E2, alpha and beta are each
    computed once per scan; both singles ports come from one fringe array.
    """
    tau = _scan_axis(state, cfg, tau_start, tau_stop, tau_step)
    # Same precondition order as the per-point functions called singles
    # first, so a scan raises the error they would.
    env = _envelopes(state, frequency_grid)
    alpha = (None if cfg.kind == MZI
             else flip_overlap(reduced_spatial_operator(state)))
    fringe = _singles_fringe(cfg, tau, env.first_order(tau), alpha)
    beta = 1.0 if cfg.kind == MZI else _signed_parity(state)
    _check_even(state, env)
    cc = _coincidences(cfg, tau, env.second_order(tau), beta)
    return Interferogram(
        tau=tau,
        singles_port1=_port(fringe, 1),
        singles_port2=_port(fringe, 2),
        coincidences=cc,
        config=cfg.describe(),
        state=state.describe(),
        engine="closed",
    )
