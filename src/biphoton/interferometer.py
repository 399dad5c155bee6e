"""Closed-form singles and coincidence interferograms.

Rates are normalized so the incoherent background equals one.  With
E1/E2 the spectral envelopes and w_p the state's pump frequency:

    balanced interferometer (equal mirror parity in both arms):
        coincidences:  1 - (1/2) cos(w_p tau) - (1/2) E2(tau)
        singles:       1 -/+ cos(w_p tau / 2) E1(tau)        (two ports)

    mirror-unbalanced variant (one arm applies x -> -x):
        coincidences:  1 - (b/2) cos(w_p tau) - (b/2) E2(tau)
        singles:       1 -/+ alpha cos(w_p tau / 2) E1(tau)

alpha is the flip overlap of one photon, b the parity overlap of the pair
and E1/E2 are taken over the envelope weights q; all three come from the
exchange-symmetrised state (``states.exchange_overlaps``) and alpha and b
are real.  The forms hold whenever the spatial amplitude or the spectral
density is exchange symmetric.  A state asymmetric in both sectors raises
BiphotonError, and a general spectral sector has no closed form; the
discrete-mode simulator covers both.

There is one way to ask for the rates at given delays, ``rates``, and one
to scan a uniform delay axis, ``scan`` (or ``scan_configs`` for several
instruments at once).  Both weight the envelopes in ``_columns``, where the
instrument kind is read as data, so the two agree bit for bit on a scan's
axis.  No call takes a frequency grid or a pump frequency: both read the
state's, ``state.spectral.grid`` and ``state.pump_frequency``.  The MZI
reads neither alpha nor b, the computable face of its independence from
spatial coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .errors import BiphotonError, UnderSampled
from .spectral import EnvelopeEvaluator, FrequencyGrid
from .states import TwoPhotonState, exchange_overlaps
from .units import FS

# Not called here: perfbench/spans.py traces these names on this module.
from .spatial import flip_overlap, pump_parity_overlap  # noqa: F401
from .states import reduced_spatial_operator  # noqa: F401


# Not called in the package: perfbench/checks.py reads its reference singles
# through this name, until the benchmark reads them from ``rates``.  checks.py
# passes the state's own frequency grid fourth, so the argument stays; the
# state says where it is sampled, so any other grid is refused.
def intensity_mzim(state: TwoPhotonState, cfg: InterferometerConfig, tau,
                   frequency_grid=None, port: int = 1):
    """Singles rate at output ``port``, 1 or 2: ``rates(...)[port - 1]``."""
    if frequency_grid is not None and frequency_grid != state.spectral.grid:
        raise ValueError("frequency_grid must be None or the state's own spectral grid")
    if port not in (1, 2):
        raise ValueError(f"port must be 1 or 2, got {port!r}")
    return rates(state, cfg, tau)[port - 1]


__all__ = [
    "MZI",
    "MZIM",
    "InterferometerConfig",
    "Interferogram",
    "rates",
    "scan",
    "scan_configs",
]

MZI = "mzi"
MZIM = "mzim"

MAX_STEP_FRACTION = 0.2  # of the pump period, the scan resolution bound
MAX_REACH_FRACTION = 0.5  # of pi / h, for frequency spacing h: the scan reach bound


def check_step(tau_step: float, pump_frequency: float) -> None:
    """Raise UnderSampled if the step (s) exceeds MAX_STEP_FRACTION of the pump
    period 2 pi / pump_frequency (rad/s); the message gives both in fs."""
    pump_period = 2.0 * math.pi / pump_frequency
    if not tau_step <= MAX_STEP_FRACTION * pump_period:  # NaN fails too
        raise UnderSampled(
            f"step {tau_step / FS:.6g} fs exceeds {MAX_STEP_FRACTION} of the pump period "
            f"{pump_period / FS:.6g} fs; fringes would be undersampled")


def check_reach(tau_start: float, tau_stop: float, frequency_grid: FrequencyGrid) -> None:
    """Raise UnderSampled if |tau_start| or |tau_stop| (s) exceeds MAX_REACH_FRACTION pi / h.

    On a grid of spacing h the discrete E2 repeats with period pi / h: a false
    HOM dip both engines agree on.  Up to pi / (2 h) the bundled rectangle's E2
    stays within 2.5e-3 of its sinc (3.6e-2 on 65 points), 0.12 up to 0.99 pi / h."""
    bound = MAX_REACH_FRACTION * math.pi / frequency_grid.spacing
    if not (abs(tau_start) <= bound and abs(tau_stop) <= bound):  # NaN fails too
        raise UnderSampled(f"the scan reaches {max(abs(tau_start), abs(tau_stop)) / FS:.6g} fs, "
                           f"past {MAX_REACH_FRACTION} pi / h = {bound / FS:.6g} fs")


@dataclass(frozen=True)
class InterferometerConfig:
    """Interferometer kind: the instrument alone; the pump frequency is the state's.

    ``kind`` is ``MZI``, the balanced instrument (equal reflection parity in
    the two arms), or ``MZIM``, the same instrument with one mirror removed,
    whose odd arm applies a single transverse flip.  Only the parity of the
    reflections matters, so neither engine asks which arm holds the delay or
    the flip; the discrete-mode simulator puts both in arm ``b``.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in (MZI, MZIM):
            raise ValueError(f"kind must be '{MZI}' or '{MZIM}'")

    @classmethod
    def mzi(cls) -> "InterferometerConfig":
        return cls(MZI)

    @classmethod
    def mzim(cls) -> "InterferometerConfig":
        return cls(MZIM)

    def describe(self) -> dict:
        return {"kind": self.kind}


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
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("tau", "singles_port1", "singles_port2", "coincidences")}
        shape = arrays["tau"].shape
        for name, arr in arrays.items():
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, tau {shape}: "
                                 "all traces must have equal shape")
            arr.setflags(write=False)
        if not np.all(np.isfinite(arrays["tau"])):
            raise ValueError("tau must be finite at every delay")
        for name in ("singles_port1", "singles_port2", "coincidences"):
            arr = arrays[name]
            if not np.all(np.isfinite(arr) & (arr >= -1e-9)):
                raise BiphotonError(f"{name} contains negative or non-finite rates")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


def _envelopes(state: TwoPhotonState):
    """(overlaps, envelope evaluator) of the exchange-symmetrised state.

    Both belong to the source: an instrument only weights the envelopes,
    by one (balanced) or by alpha and b (mirror-unbalanced).
    """
    ov = exchange_overlaps(state)
    return ov, EnvelopeEvaluator.from_weights(ov.weights, state.spectral.grid)


def _terms(state: TwoPhotonState, env: EnvelopeEvaluator, tau):
    """(cos(w_p tau / 2), cos(w_p tau), E1, E2) at ``tau``: what every instrument weights."""
    return (np.cos(state.pump_frequency * tau / 2.0), np.cos(state.pump_frequency * tau),
            env.first_order(tau), env.second_order(tau))


def _columns(ov, cfg: InterferometerConfig, half_fringe, fringe, e1, e2):
    """(singles at port 1, singles at port 2, coincidences) from ``_terms``.

    The only place the instrument enters.  The balanced one reads neither
    alpha nor b, so its rates ignore the spatial sector.  The mirror-
    unbalanced one weights the singles fringe f by alpha, ~0 for spatially
    incoherent light and +1 (-1) for a pure even (odd) mode, and both
    coincidence terms by b.  Port 1 carries 1 - f and port 2 1 + f: the ports
    sum to 2 (lossless model).  An even pump (b = 1) gives the balanced
    coincidences; an odd one (b = -1) shifts the sinusoid by pi and inverts
    the dip into a peak, by the sign the flipped-arm amplitude acquires in
    the exchange pathway (the discrete-mode simulator confirms it).
    """
    alpha, b = (1.0, 1.0) if cfg.kind == MZI else (ov.alpha, ov.b)
    f = alpha * half_fringe * e1
    return 1.0 - f, 1.0 + f, 1.0 - 0.5 * b * fringe - 0.5 * b * e2


def rates(state: TwoPhotonState, cfg: InterferometerConfig, tau):
    """(singles at port 1, singles at port 2, coincidences) at delays ``tau`` (s).

    ``tau`` may have any shape, and each rate has its shape; a scalar delay
    gives three floats.  On a ``scan``'s delay axis the three equal its
    columns bit for bit: both weight ``_terms`` there in ``_columns``.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if not np.isfinite(tau_arr).all():
        raise ValueError("tau must be finite at every delay")
    ov, env = _envelopes(state)
    columns = _columns(ov, cfg, *_terms(state, env, tau_arr))
    return tuple(float(c) for c in columns) if np.ndim(tau) == 0 else columns


def _axis_count(tau_start: float, tau_stop: float, tau_step: float) -> int:
    """Point count of ``tau_axis``'s axis, after its argument checks."""
    if not 0.0 < tau_step < math.inf:
        raise ValueError(f"tau_step must be positive and finite, got {tau_step!r}")
    for name, value in (("tau_start", tau_start), ("tau_stop", tau_stop)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not tau_start <= tau_stop:
        raise ValueError("tau_stop must not precede tau_start")
    span = (tau_stop - tau_start) / tau_step
    if not math.isfinite(span):
        raise ValueError(f"(tau_stop - tau_start) / tau_step = {span!r} is not finite")
    return int(math.floor(span + 1e-9)) + 1


def tau_axis(tau_start: float, tau_stop: float, tau_step: float) -> np.ndarray:
    """Inclusive uniform delay axis, one point if zero-width; NaN fails every check."""
    return tau_start + tau_step * np.arange(_axis_count(tau_start, tau_stop, tau_step))


def _scan_axis(state: TwoPhotonState, tau_start: float, tau_stop: float,
               tau_step: float) -> np.ndarray:
    """Delay axis of a scan by either engine, after the checks both make.

    Raises ValueError if ``tau_axis`` rejects an argument, and UnderSampled
    from ``check_step`` on the state's pump frequency or ``check_reach`` on its
    spectral grid; every check runs before the axis is allocated.
    """
    check_step(tau_step, state.pump_frequency)
    count = _axis_count(tau_start, tau_stop, tau_step)
    check_reach(tau_start, tau_stop, state.spectral.grid)
    return tau_start + tau_step * np.arange(count)


def scan(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau_start: float,
    tau_stop: float,
    tau_step: float,
) -> Interferogram:
    """Closed-form delay scan producing both singles ports and coincidences.

    Steps above one fifth of the pump period raise UnderSampled, as do scans
    past ``check_reach``'s bound.  alpha, b, E1 and E2 are each
    computed once per scan; both singles ports come from one fringe array.
    """
    return scan_configs(state, [cfg], tau_start, tau_stop, tau_step)[0]


def scan_configs(
    state: TwoPhotonState,
    cfgs: Sequence[InterferometerConfig],
    tau_start: float,
    tau_stop: float,
    tau_step: float,
) -> List[Interferogram]:
    """Closed-form delay scans of one state through each of ``cfgs``.

    The scans share one delay axis, one exchange_overlaps call and one
    evaluation of the two fringes and of E1 and E2; each instrument only
    weights them.
    """
    if not cfgs:
        raise ValueError("need at least one interferometer configuration")
    tau = _scan_axis(state, tau_start, tau_stop, tau_step)
    ov, env = _envelopes(state)
    terms = _terms(state, env, tau)
    grams = []
    for cfg in cfgs:
        s1, s2, cc = _columns(ov, cfg, *terms)
        grams.append(Interferogram(
            tau=tau,
            singles_port1=s1,
            singles_port2=s2,
            coincidences=cc,
            config=cfg.describe(),
            state=state.describe(),
            engine="closed",
        ))
    return grams
