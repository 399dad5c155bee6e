"""Interferogram analysis: visibilities, fringe periods, dip width.

The two timescales in a scan are separated by a factor of order one
hundred (femtosecond fringes under a sub-picosecond envelope), so fringe
and envelope are split in the Fourier domain: the fringe period is read
off the dominant non-DC line, and the dip width is measured after a notch
that removes everything above one quarter of the fringe frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    EmptyOrNegative,
    GridMismatch,
    NoDip,
    NoFringe,
    NonFiniteSpectrum,
    UnderResolved,
)

__all__ = [
    "VisibilityReport",
    "visibility",
    "fringe_period",
    "hom_dip_fwhm",
    "report",
]

MIN_SAMPLES_PER_PERIOD = 16
FRINGE_FLOOR = 1e-6          # relative non-DC peak below which there is no fringe
FLATNESS_FRINGE_FLOOR = 1e-2  # report-level floor consistent with the 0.02 flatness bound
NOTCH_FRACTION = 0.25        # notch cutoff as a fraction of the fringe frequency
# n |sample| must stay below this: spectra are bounded by sum |sample| (twice
# that for a mean-free row), and the peak interpolation takes second differences
SPECTRUM_CEILING = np.finfo(float).max / 8.0


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyOrNegative("samples must be a nonempty 1-d sequence")
    return arr


def _uniform_step(tau: np.ndarray) -> float:
    if tau.size < 2:
        raise UnderResolved("need at least two samples")
    steps = np.diff(tau)
    step = float(steps[0])
    if step <= 0.0 or np.any(np.abs(steps - step) > 1e-6 * abs(step)):
        raise ValueError("delay grid must be uniform and increasing")
    return step


def visibility(samples) -> float:
    """(max - min) / (max + min), clamped to [0, 1].

    Raises EmptyOrNegative for empty input, rates below -1e-9, or a
    nonpositive maximum.  Invariant under positive rescaling.
    """
    arr = _as_samples(samples)
    if np.any(arr < -1e-9):
        raise EmptyOrNegative("rates must be nonnegative")
    hi = float(arr.max())
    lo = max(float(arr.min()), 0.0)
    if hi <= 0.0:
        raise EmptyOrNegative("maximum rate must be positive")
    if not math.isfinite(hi + lo):  # rates near float max: halving is exact
        hi, lo = 0.5 * hi, 0.5 * lo
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


def _trace(samples, tau, what: str) -> Tuple[np.ndarray, np.ndarray, float]:
    """(samples, delays, step) of one uniformly sampled trace.

    Raises NonFiniteSpectrum unless every |sample| stays below
    SPECTRUM_CEILING / n: the trace's spectra, and their sums and second
    differences, are then finite.
    """
    arr = _as_samples(samples)
    tau_arr = np.asarray(tau, dtype=float)
    if tau_arr.shape != arr.shape:
        raise GridMismatch("samples and delay grid differ in length")
    step = _uniform_step(tau_arr)
    peak, bound = float(np.max(np.abs(arr))), SPECTRUM_CEILING / arr.size
    if not peak < bound:
        raise NonFiniteSpectrum(
            f"the {what} rates must be finite and below {bound:.3g} for a spectrum "
            f"over {arr.size} samples not to overflow; got {peak:.3g}")
    return arr, tau_arr, step


def _fringe_row(arr: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The mean-free, Hann-windowed trace whose spectrum holds the fringe line."""
    return (arr - arr.mean()) * window


def _dc(arr: np.ndarray, window: np.ndarray) -> float:
    return float(np.abs(np.sum(arr * window)))


def _period(spectrum: np.ndarray, dc: float, n: int, step: float,
            min_relative_peak: float, min_samples_per_period: int) -> float:
    """Fringe period from the magnitude spectrum of a ``_fringe_row``.

    ``dc`` is ``_dc`` of the samples.  Raises as :func:`fringe_period`.
    """
    if spectrum.size < 3:
        raise UnderResolved("trace too short for spectral analysis")
    k = int(np.argmax(spectrum[1:]) + 1)
    if dc <= 0.0 or spectrum[k] < min_relative_peak * dc:
        raise NoFringe(
            f"dominant non-DC magnitude {spectrum[k]:.3e} below "
            f"{min_relative_peak} of DC {dc:.3e}")
    if 1 <= k < spectrum.size - 1:
        y0, y1, y2 = spectrum[k - 1], spectrum[k], spectrum[k + 1]
        denom = y0 - 2.0 * y1 + y2
        delta = 0.5 * (y0 - y2) / denom if denom != 0.0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    frequency = (k + delta) / (n * step)  # cycles per second
    period = 1.0 / frequency
    if period < min_samples_per_period * step:
        raise UnderResolved(
            f"period {period:.3e} s spans fewer than {min_samples_per_period} "
            f"samples at step {step:.3e} s")
    return period


def fringe_period(
    samples,
    tau,
    min_relative_peak: float = FRINGE_FLOOR,
    min_samples_per_period: int = MIN_SAMPLES_PER_PERIOD,
) -> float:
    """Period of the dominant oscillation in a uniformly sampled trace.

    The mean is removed, a Hann window applied, and the largest non-DC
    line of the magnitude spectrum refined by quadratic interpolation
    around the peak bin.  Raises NoFringe when that line is below
    ``min_relative_peak`` of the DC level, UnderResolved when the
    detected period spans fewer than ``min_samples_per_period`` samples,
    and NonFiniteSpectrum when the samples are too large to transform.
    """
    arr, _, step = _trace(samples, tau, "samples")
    window = np.hanning(arr.size)
    spectrum = np.abs(np.fft.rfft(_fringe_row(arr, window)))
    return _period(spectrum, _dc(arr, window), arr.size, step,
                   min_relative_peak, min_samples_per_period)


def _dip_width(spectrum: np.ndarray, tau: np.ndarray, step: float,
               fringe_frequency: float) -> float:
    """Full width at half depth of the slow dip, from the trace's rfft.

    ``spectrum`` is zeroed in place above the notch.  Raises as
    :func:`hom_dip_fwhm`.
    """
    n = tau.size
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=step)
    spectrum[omega > NOTCH_FRACTION * fringe_frequency] = 0.0
    slow = np.fft.irfft(spectrum, n=n)

    i_min = int(np.argmin(slow))
    distance = np.abs(tau - tau[i_min])
    outer = distance >= 0.8 * float(distance.max())
    baseline = float(np.median(slow[outer]))
    depth = baseline - float(slow[i_min])
    if depth < 1e-3:
        raise NoDip(f"dip depth {depth:.3e} below 1e-3")
    level = baseline - 0.5 * depth

    # the first sample at or above half depth on each side of the minimum,
    # which must lie inside the scan
    recovered = slow >= level
    right = np.flatnonzero(recovered[i_min + 1:])
    left = np.flatnonzero(recovered[:i_min])
    if not (0 < i_min < n - 1 and right.size and left.size):
        raise NoDip("dip does not recover to half depth inside the scan")
    j = np.array([i_min + 1 + right[0], left[-1]])
    i = j + np.array([-1, 1])  # the neighbour toward the minimum
    # linear interpolation between sample i and sample j
    frac = (level - slow[i]) / (slow[j] - slow[i])
    edges = tau[i] + frac * (tau[j] - tau[i])
    return float(edges[0]) - float(edges[1])


def hom_dip_fwhm(samples, tau, fringe_frequency: float) -> float:
    """Full width at half depth of the slow coincidence dip.

    The fast fringe at ``fringe_frequency`` (rad/s) is removed by zeroing
    all Fourier components above one quarter of it; the dip is then
    measured on the remaining slow trace against a baseline taken as the
    median of the outermost fifth of the samples.  Raises NoDip when the
    dip depth is below 1e-3, and NonFiniteSpectrum when the samples are
    too large to transform.
    """
    arr, tau_arr, step = _trace(samples, tau, "samples")
    return _dip_width(np.fft.rfft(arr), tau_arr, step, fringe_frequency)


@dataclass(frozen=True)
class VisibilityReport:
    """Summary quantities of one singles / coincidence scan pair.

    ``complementarity_sum`` is v1^2 + v12^2, reported as a diagnostic only;
    it is not a validity check (a single two-path instrument fed with both
    photons can reach 2).
    """

    v1: float
    v12: float
    complementarity_sum: float
    window: Tuple[float, float]
    fringe_period_singles: Optional[float]
    fringe_period_coincidence: Optional[float]
    hom_fwhm: Optional[float]

    def __post_init__(self):
        for name in ("v1", "v12"):
            v = getattr(self, name)
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("fringe_period_singles", "fringe_period_coincidence", "hom_fwhm"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite when present, got {v!r}")


def _optional(estimate, *args) -> Optional[float]:
    try:
        return estimate(*args)
    except (NoFringe, NoDip):
        return None


def report(
    tau_singles,
    singles,
    tau_coincidence,
    coincidences,
    window: Optional[Tuple[float, float]] = None,
) -> VisibilityReport:
    """Aggregate visibilities, periods and dip width for a scan pair.

    Both scans must share one delay grid.  Visibilities are taken from
    global extrema inside the window, which defaults to the central three
    fringe periods on either side of zero delay (where the envelope is
    close to one).  FLATNESS_FRINGE_FLOOR is the relative peak threshold
    for a fringe: a residual oscillation below one percent of DC counts as
    flat, consistent with the package-wide 0.02 flatness bound.
    """
    tau_s = np.asarray(tau_singles, dtype=float)
    tau_c = np.asarray(tau_coincidence, dtype=float)
    if tau_s.shape != tau_c.shape or np.any(np.abs(tau_s - tau_c) > 1e-20 + 1e-9 * np.abs(tau_s)):
        raise GridMismatch("singles and coincidence scans use different delay grids")
    singles_arr, tau_s, step_s = _trace(singles, tau_s, "singles")
    coinc_arr, tau_c, step_c = _trace(coincidences, tau_c, "coincidence")
    n = singles_arr.size

    # one rfft: the two fringe rows, and the raw coincidences for the notch
    hann = np.hanning(n)
    spectra = np.fft.rfft(np.stack([_fringe_row(singles_arr, hann),
                                    _fringe_row(coinc_arr, hann), coinc_arr]))
    magnitude = np.abs(spectra[:2])
    dc_s, dc_c = _dc(singles_arr, hann), _dc(coinc_arr, hann)

    period_singles = _optional(_period, magnitude[0], dc_s, n, step_s, FLATNESS_FRINGE_FLOOR, 4)
    period_coinc = _optional(_period, magnitude[1], dc_c, n, step_c, FLATNESS_FRINGE_FLOOR, 4)

    if window is None:
        if period_singles is not None:
            half = 3.0 * period_singles
        elif period_coinc is not None:
            half = 6.0 * period_coinc
        else:
            half = float(np.max(np.abs(tau_s)))
        window = (-half, half)
    mask = (tau_s >= window[0]) & (tau_s <= window[1])
    if not np.any(mask):
        raise GridMismatch("window contains no samples")

    v1 = visibility(singles_arr[mask])
    v12 = visibility(coinc_arr[mask])

    hom = None
    if period_coinc is not None:
        hom = _optional(_dip_width, spectra[2], tau_c, step_c, 2.0 * math.pi / period_coinc)

    return VisibilityReport(
        v1=v1,
        v12=v12,
        complementarity_sum=v1**2 + v12**2,
        window=(float(window[0]), float(window[1])),
        fringe_period_singles=period_singles,
        fringe_period_coincidence=period_coinc,
        hom_fwhm=hom,
    )
