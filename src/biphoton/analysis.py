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
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


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
    ``min_relative_peak`` of the DC level and UnderResolved when the
    detected period spans fewer than ``min_samples_per_period`` samples.
    """
    arr = _as_samples(samples)
    tau_arr = np.asarray(tau, dtype=float)
    if tau_arr.shape != arr.shape:
        raise GridMismatch("samples and delay grid differ in length")
    step = _uniform_step(tau_arr)
    n = arr.size
    window = np.hanning(n)
    dc = float(np.abs(np.sum(arr * window)))
    spectrum = np.abs(np.fft.rfft((arr - arr.mean()) * window))
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


def _notch_slow_component(samples: np.ndarray, step: float, cutoff_angular: float) -> np.ndarray:
    """Trace with all Fourier components above the cutoff removed."""
    spectrum = np.fft.rfft(samples)
    omega = 2.0 * math.pi * np.fft.rfftfreq(samples.size, d=step)
    spectrum[omega > cutoff_angular] = 0.0
    return np.fft.irfft(spectrum, n=samples.size)


def hom_dip_fwhm(samples, tau, fringe_frequency: float) -> float:
    """Full width at half depth of the slow coincidence dip.

    The fast fringe at ``fringe_frequency`` (rad/s) is removed by zeroing
    all Fourier components above one quarter of it; the dip is then
    measured on the remaining slow trace against a baseline taken as the
    median of the outermost fifth of the samples.  Raises NoDip when the
    dip depth is below 1e-3.
    """
    arr = _as_samples(samples)
    tau_arr = np.asarray(tau, dtype=float)
    if tau_arr.shape != arr.shape:
        raise GridMismatch("samples and delay grid differ in length")
    step = _uniform_step(tau_arr)
    slow = _notch_slow_component(arr, step, NOTCH_FRACTION * fringe_frequency)

    i_min = int(np.argmin(slow))
    distance = np.abs(tau_arr - tau_arr[i_min])
    outer = distance >= 0.8 * float(distance.max())
    baseline = float(np.median(slow[outer]))
    depth = baseline - float(slow[i_min])
    if depth < 1e-3:
        raise NoDip(f"dip depth {depth:.3e} below 1e-3")
    level = baseline - 0.5 * depth

    def crossing(direction: int) -> float:
        i = i_min
        while 0 < i < arr.size - 1:
            j = i + direction
            if slow[j] >= level:
                # linear interpolation between sample j-direction and j
                frac = (level - slow[i]) / (slow[j] - slow[i])
                return float(tau_arr[i] + frac * (tau_arr[j] - tau_arr[i]))
            i = j
        raise NoDip("dip does not recover to half depth inside the scan")

    return crossing(+1) - crossing(-1)


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
            if v is not None and v <= 0.0:
                raise ValueError(f"{name} must be positive when present")


def _optional_period(samples, tau, min_relative_peak, min_samples_per_period) -> Optional[float]:
    try:
        return fringe_period(samples, tau,
                             min_relative_peak=min_relative_peak,
                             min_samples_per_period=min_samples_per_period)
    except NoFringe:
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
    singles_arr = _as_samples(singles)
    coinc_arr = _as_samples(coincidences)

    period_singles = _optional_period(singles_arr, tau_s, FLATNESS_FRINGE_FLOOR, 4)
    period_coinc = _optional_period(coinc_arr, tau_c, FLATNESS_FRINGE_FLOOR, 4)

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
        try:
            hom = hom_dip_fwhm(coinc_arr, tau_c, 2.0 * math.pi / period_coinc)
        except NoDip:
            hom = None

    return VisibilityReport(
        v1=v1,
        v12=v12,
        complementarity_sum=v1**2 + v12**2,
        window=(float(window[0]), float(window[1])),
        fringe_period_singles=period_singles,
        fringe_period_coincidence=period_coinc,
        hom_fwhm=hom,
    )
