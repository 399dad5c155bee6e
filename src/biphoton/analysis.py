"""Interferogram analysis: visibilities, fringe periods, dip width.

The two timescales in a scan are separated by a factor of order one
hundred (femtosecond fringes under a sub-picosecond envelope), so fringe
and envelope are split in the Fourier domain: the fringe period is read
off the dominant non-DC line, and the dip width is measured after a notch
that removes everything above one quarter of the fringe frequency.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BiphotonError, NoDip, NoFringe
from .spectral import _uniform_step

__all__ = [
    "VisibilityReport",
    "visibility",
    "fringe_period",
    "hom_dip_fwhm",
    "report",
    "reports",
]

MIN_SAMPLES_PER_PERIOD = 16
FRINGE_FLOOR = 1e-6          # relative non-DC peak below which there is no fringe
FLATNESS_FRINGE_FLOOR = 1e-2  # report-level floor consistent with the 0.02 flatness bound
NOTCH_FRACTION = 0.25        # notch cutoff as a fraction of the fringe frequency
# n |sample| must stay below this: spectra are bounded by sum |sample| (twice
# that for a mean-free row), and the peak interpolation takes second differences
SPECTRUM_CEILING = np.finfo(float).max / 8.0
# A delay printed at 9 significant digits (as the CLI's CSV holds it) moves
# by up to 5e-9 |tau|, so a spacing read back moves by up to 1e-8 max|tau|
# from the true step, and the mean step by that over n - 1.
PRINTED_DELAY_RTOL = 2e-8


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise BiphotonError("samples must be a nonempty 1-d sequence")
    return arr


def visibility(samples) -> float:
    """(max - min) / (max + min), clamped to [0, 1].

    Raises BiphotonError for empty input, a NaN or infinite rate, rates
    below -1e-9, or a nonpositive maximum.  Invariant under positive
    rescaling.
    """
    arr = _as_samples(samples)
    if not np.all(np.isfinite(arr)):
        raise BiphotonError("rates must be finite")
    if np.any(arr < -1e-9):
        raise BiphotonError("rates must be nonnegative")
    hi = float(arr.max())
    lo = max(float(arr.min()), 0.0)
    if hi <= 0.0:
        raise BiphotonError("maximum rate must be positive")
    if not math.isfinite(hi + lo):  # rates near float max: halving is exact
        hi, lo = 0.5 * hi, 0.5 * lo
    return min(max((hi - lo) / (hi + lo), 0.0), 1.0)


def _traces(rows, tau, names) -> Tuple[List[np.ndarray], np.ndarray, float]:
    """(samples of each row, delays, step) of traces on one uniform grid.

    The step is the mean step.  Checks every row's length against the
    grid's, then the grid, then every row's size, each named by ``names``:
    raises BiphotonError unless each row has the grid's shape and the grid
    at least two points, ValueError unless the step is positive and every
    spacing is within PRINTED_DELAY_RTOL max|tau| of it (a NaN or infinite
    delay fails), and BiphotonError unless every |sample| stays below
    SPECTRUM_CEILING / n: the rows' spectra, and their sums and second
    differences, are then finite.
    """
    tau_arr = np.asarray(tau, dtype=float)
    arrs = [np.asarray(row, dtype=float) for row in rows]
    for arr, name in zip(arrs, names):
        if arr.shape != tau_arr.shape:
            raise BiphotonError(f"{name} and delay grid differ in length: "
                                f"shape {arr.shape} against {tau_arr.shape}")
    if tau_arr.size < 2:
        raise BiphotonError("need at least two samples")
    step = _uniform_step(tau_arr, PRINTED_DELAY_RTOL)
    if step is None or step <= 0.0:
        raise ValueError("delay grid must be uniform and increasing")
    bound = SPECTRUM_CEILING / tau_arr.size
    for arr, name in zip(arrs, names):
        peak = float(np.max(np.abs(arr)))
        if not peak < bound:
            raise BiphotonError(
                f"the {name} rates must be finite and below {bound:.3g} for a spectrum "
                f"over {arr.size} samples not to overflow; got {peak:.3g}")
    return arrs, tau_arr, step


def _trace(samples, tau, name: str) -> Tuple[np.ndarray, np.ndarray, float]:
    """(samples, delays, step) of one trace, checked as ``_traces`` checks it."""
    (arr,), tau_arr, step = _traces([samples], tau, [name])
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
        raise BiphotonError("trace too short for spectral analysis")
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
        raise BiphotonError(
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
    ``min_relative_peak`` of the DC level, and BiphotonError when the
    detected period spans fewer than ``min_samples_per_period`` samples or
    the samples are too large to transform.
    """
    arr, _, step = _trace(samples, tau, "samples")
    window = np.hanning(arr.size)
    spectrum = np.abs(np.fft.rfft(_fringe_row(arr, window)))
    return _period(spectrum, _dc(arr, window), arr.size, step,
                   min_relative_peak, min_samples_per_period)


def _notch(spectrum: np.ndarray, n: int, step: float, fringe_frequency: float) -> None:
    """Zero the rfft ``spectrum`` of n samples at spacing ``step``, in place,
    above NOTCH_FRACTION of the fringe frequency (rad/s)."""
    omega = 2.0 * math.pi * np.fft.rfftfreq(n, d=step)
    spectrum[omega > NOTCH_FRACTION * fringe_frequency] = 0.0


def _slow_width(slow: np.ndarray, tau: np.ndarray) -> float:
    """Full width at half depth of the dip in a notched trace ``slow``.

    Raises NoDip as :func:`hom_dip_fwhm`.
    """
    n = tau.size
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
    dip depth is below 1e-3, and BiphotonError when the samples are too
    large to transform.
    """
    arr, tau_arr, step = _trace(samples, tau, "samples")
    spectrum = np.fft.rfft(arr)
    _notch(spectrum, arr.size, step, fringe_frequency)
    return _slow_width(np.fft.irfft(spectrum, n=arr.size), tau_arr)


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


def _window_bounds(window) -> Tuple[float, float]:
    """An explicit ``window`` as (lo, hi); raises ValueError, naming it,
    unless it is a pair of numbers, neither NaN, with lo < hi.  Either
    bound may be infinite."""
    try:
        lo, hi = window
    except (TypeError, ValueError):
        lo = hi = None
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real) and lo < hi):
        raise ValueError(f"window must be a pair of numbers lo < hi, neither NaN; "
                         f"got {window!r}")
    return float(lo), float(hi)


def _optional(estimate, *args) -> Optional[float]:
    try:
        return estimate(*args)
    except (NoFringe, NoDip):
        return None


def report(
    tau,
    singles,
    coincidences,
    window: Optional[Tuple[float, float]] = None,
) -> VisibilityReport:
    """Aggregate visibilities, periods and dip width for a scan pair.

    Both scans are sampled on the one delay grid ``tau``.  Visibilities
    are taken from global extrema inside the window, which defaults to
    three fringe periods on either side of the scanned delay nearest zero:
    zero itself for a scan that holds it, where the envelope is close to
    one, else the scan's end nearer zero.  FLATNESS_FRINGE_FLOOR is the
    relative peak threshold for a fringe: a residual oscillation below one
    percent of DC counts as flat, consistent with the package-wide 0.02
    flatness bound.  This is ``reports(tau, [singles], [coincidences],
    window)[0]``.
    """
    return reports(tau, [singles], [coincidences], window)[0]


def reports(
    tau,
    singles_rows,
    coincidence_rows,
    window: Optional[Tuple[float, float]] = None,
) -> List[VisibilityReport]:
    """One :func:`report` per singles / coincidence row pair on the grid ``tau``.

    Every row is checked first, and ``tau`` once.  Then all pairs share
    one Hann window, one rfft over 3k stacked rows (each pair's two fringe
    rows and its raw coincidences) and one irfft over the notched
    coincidences of the pairs with a coincidence fringe.  At a length such
    as 5001 = 3 · 1667 numpy's FFT sets up a Bluestein plan on every call,
    at about the cost of transforming two rows; a batched row has the bits
    of the same row transformed alone, so each report equals ``report`` on
    its pair.  An explicit ``window`` serves every pair.

    Raises BiphotonError, naming the argument, when the two row sets differ
    in count or hold no row, or a row's length is not ``tau``'s, and then
    ValueError when an explicit ``window`` is not a pair of numbers, neither
    NaN, with lo < hi; both before any transform.  Errors
    found after the checks come in row order, as from one ``report`` call
    per pair.
    """
    singles_rows, coincidence_rows = list(singles_rows), list(coincidence_rows)
    count = len(singles_rows)
    if count != len(coincidence_rows):
        raise BiphotonError(f"singles_rows and coincidence_rows differ in count: "
                            f"{count} and {len(coincidence_rows)}")
    if count == 0:
        raise BiphotonError("singles_rows and coincidence_rows hold no rows")
    # a single pair keeps report's names for its two traces
    names = [kind if count == 1 else f"{kind}_rows[{i}]"
             for i in range(count) for kind in ("singles", "coincidence")]
    rows = [row for pair in zip(singles_rows, coincidence_rows) for row in pair]
    arrs, tau_arr, step = _traces(rows, tau, names)
    if window is not None:
        window = _window_bounds(window)
    pairs = list(zip(arrs[0::2], arrs[1::2]))
    n = tau_arr.size

    # one rfft: each pair's two fringe rows, and its raw coincidences for the notch
    hann = np.hanning(n)
    spectra = np.fft.rfft(np.stack([row for singles_arr, coinc_arr in pairs
                                    for row in (_fringe_row(singles_arr, hann),
                                                _fringe_row(coinc_arr, hann), coinc_arr)]))
    spectra = spectra.reshape(count, 3, -1)
    magnitude = np.abs(spectra[:, :2])

    readings = []
    for (singles_arr, coinc_arr), (mag_s, mag_c) in zip(pairs, magnitude):
        period_singles = _optional(_period, mag_s, _dc(singles_arr, hann), n, step,
                                   FLATNESS_FRINGE_FLOOR, 4)
        period_coinc = _optional(_period, mag_c, _dc(coinc_arr, hann), n, step,
                                 FLATNESS_FRINGE_FLOOR, 4)

        span = window
        if span is None:
            if period_singles is not None:
                half = 3.0 * period_singles
            elif period_coinc is not None:
                half = 6.0 * period_coinc
            else:
                half = float(np.max(np.abs(tau_arr)))
            centre = min(max(0.0, float(tau_arr[0])), float(tau_arr[-1]))
            span = (centre - half, centre + half)
        mask = (tau_arr >= span[0]) & (tau_arr <= span[1])
        if not np.any(mask):
            raise BiphotonError("window contains no samples")
        readings.append(dict(v1=visibility(singles_arr[mask]), v12=visibility(coinc_arr[mask]),
                             window=(float(span[0]), float(span[1])),
                             fringe_period_singles=period_singles,
                             fringe_period_coincidence=period_coinc, hom_fwhm=None))

    # one irfft: the notched coincidences of the pairs with a coincidence fringe
    fringed = [i for i, reading in enumerate(readings)
               if reading["fringe_period_coincidence"] is not None]
    if fringed:
        notched = spectra[fringed, 2]
        for row, i in zip(notched, fringed):
            _notch(row, n, step, 2.0 * math.pi / readings[i]["fringe_period_coincidence"])
        for slow, i in zip(np.fft.irfft(notched, n=n), fringed):
            readings[i]["hom_fwhm"] = _optional(_slow_width, slow, tau_arr)

    return [VisibilityReport(complementarity_sum=r["v1"]**2 + r["v12"]**2, **r)
            for r in readings]
