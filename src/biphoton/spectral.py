"""One-photon spectral densities and the two interferogram envelopes.

The quantities computed here are the slowly varying factors of the
interferograms:

    E1(tau) = integral dW |psi(W)|^2 cos(W tau)      (singles envelope)
    E2(tau) = integral dW |psi(W)|^2 cos(2 W tau)    (coincidence-dip envelope)

with W the baseband detuning from half the pump frequency.  Both are
evaluated by the trapezoid rule on a uniform, symmetric frequency grid; the
same grid and weights back the discrete-mode simulator, so the two engines
share one discretization and agree to round-off rather than to quadrature
error.  E2 is, by construction, E1 evaluated at twice the delay.

On a uniform delay axis the quadrature sum is a chirp-z transform, which
:func:`chirp_z` evaluates by Bluestein's algorithm (Rabiner, Schafer &
Rader, 1969) in O((T + M) log(T + M)) for T delays and M frequencies.
:class:`EnvelopeEvaluator` takes its real part; the discrete-mode oracle
calls it once per scan on its table of phase coefficients.  Scalars and
non-uniform delays use the direct O(T M) sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import ZeroDensity

__all__ = [
    "FrequencyGrid",
    "Rectangular",
    "Gaussian",
    "Tabulated",
    "SpectralDensity",
    "default_frequency_grid",
    "normalize",
    "envelope_first_order",
    "envelope_second_order",
    "EnvelopeEvaluator",
    "chirp_z",
]


@dataclass(frozen=True)
class _SymmetricGrid:
    """Uniform grid symmetric about 0, with 0 a node (odd point count).

    Subclasses name the axis; grids of two kinds are never equal.
    """

    half_width: float
    point_count: int

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")
        if self.point_count < 3 or self.point_count % 2 == 0:
            raise ValueError("point_count must be an odd integer >= 3")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.point_count - 1)

    @property
    def center_index(self) -> int:
        return self.point_count // 2

    def _nodes(self) -> np.ndarray:
        # (signed integer index) * spacing: the node at -x is the exact
        # floating-point negation of the node at x, so flips are exact
        # index reversals with no rounding skew.
        return (np.arange(self.point_count) - self.center_index) * self.spacing


class FrequencyGrid(_SymmetricGrid):
    """Uniform grid of baseband detunings, symmetric about W = 0.

    The discrete-mode simulator relies on W -> -W being an exact index
    reversal to represent frequency anti-correlation without interpolation.
    """

    def omegas(self) -> np.ndarray:
        return self._nodes()

    def trapezoid_weights(self) -> np.ndarray:
        """Trapezoid-rule quadrature weights: the spacing, halved at both ends."""
        w = np.full(self.point_count, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class Rectangular:
    """Flat passband of the given full width, centered at W = 0."""

    full_width: float

    def __post_init__(self):
        # the band edges sit at +-full_width / 2, which must not round to 0
        if not (self.full_width / 2.0 > 0.0 and self.full_width < math.inf):
            raise ValueError(
                f"full_width must be finite with a positive half, got {self.full_width!r}")

    @property
    def support_half_width(self) -> float:
        return self.full_width / 2.0

    def sample(self, grid: FrequencyGrid) -> np.ndarray:
        # Cell-averaged samples: each node represents the mean of the exact
        # indicator over its cell, so a node sitting exactly on the passband
        # edge carries half height and the trapezoid sum reproduces the
        # exact band area.
        om = grid.omegas()
        h = grid.spacing
        cell = h * self.full_width
        if not 0.0 < cell < math.inf:
            raise ValueError(f"full_width {self.full_width!r} times the grid spacing {h!r} "
                             "is not a finite positive number")
        lo = np.clip(om - h / 2.0, -self.support_half_width, self.support_half_width)
        hi = np.clip(om + h / 2.0, -self.support_half_width, self.support_half_width)
        return (hi - lo) / cell


@dataclass(frozen=True)
class Gaussian:
    """Gaussian density with the given rms width (standard deviation)."""

    rms_width: float

    def __post_init__(self):
        # the samples divide by rms_width**2, which must not round to 0 or inf
        if not (self.rms_width > 0.0 and 0.0 < self.rms_width * self.rms_width < math.inf):
            raise ValueError(
                f"rms_width must be positive with a finite nonzero square, got {self.rms_width!r}")

    @property
    def support_half_width(self) -> float:
        # Effective support for grid sizing: beyond 6 sigma the tail mass
        # is ~2e-9 and is absorbed by renormalization.
        return 6.0 * self.rms_width

    def sample(self, grid: FrequencyGrid) -> np.ndarray:
        om = grid.omegas()
        s = self.rms_width
        return np.exp(-om**2 / (2.0 * s**2)) / (s * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class Tabulated:
    """Density given as (detuning, density) pairs, linearly interpolated."""

    omegas: tuple
    densities: tuple

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        de = np.asarray(self.densities, dtype=float)
        if om.ndim != 1 or om.size < 2 or om.shape != de.shape:
            raise ValueError("need matching 1-d tables with at least 2 points")
        if not np.all(np.diff(om) > 0.0):
            raise ValueError("tabulated detunings must be strictly increasing")
        if not np.all(de >= 0.0):
            raise ValueError("tabulated density must be nonnegative")
        object.__setattr__(self, "omegas", tuple(float(v) for v in om))
        object.__setattr__(self, "densities", tuple(float(v) for v in de))

    @property
    def support_half_width(self) -> float:
        return max(abs(self.omegas[0]), abs(self.omegas[-1]))

    def sample(self, grid: FrequencyGrid) -> np.ndarray:
        return np.interp(grid.omegas(), self.omegas, self.densities, left=0.0, right=0.0)


Shape = Union[Rectangular, Gaussian, Tabulated]


@dataclass(frozen=True)
class SpectralDensity:
    """Baseband spectral density |psi(W)|^2 of one down-converted photon.

    ``scale`` multiplies the shape's raw samples; :func:`normalize` adjusts
    it so the trapezoid integral over a working grid equals one.
    """

    shape: Shape
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    def sample(self, grid: FrequencyGrid) -> np.ndarray:
        values = self.scale * self.shape.sample(grid)
        if np.any(values < 0.0):
            raise ValueError("density must be nonnegative everywhere")
        return values

    def is_even_on(self, grid: FrequencyGrid) -> bool:
        """True iff the sampled density is exactly flip-symmetric at every node."""
        d = self.sample(grid)
        return bool(np.array_equal(d, d[::-1]))

    def describe(self) -> str:
        s = self.shape
        if isinstance(s, Rectangular):
            return f"rectangular(full_width={s.full_width:.6e} rad/s)"
        if isinstance(s, Gaussian):
            return f"gaussian(rms_width={s.rms_width:.6e} rad/s)"
        return f"tabulated({len(s.omegas)} points)"


def default_frequency_grid(sd: SpectralDensity, point_count: int = 1025) -> FrequencyGrid:
    """Grid sized to the density: 4x the support half width (6 sigma for a
    Gaussian), which keeps domain-truncation error below 1e-8 for all
    default scans.  With the default point count the rectangle's band edges
    land exactly on grid nodes.
    """
    s = sd.shape
    half = s.support_half_width if isinstance(s, Gaussian) else 4.0 * s.support_half_width
    return FrequencyGrid(half_width=half, point_count=point_count)


def normalize(sd: SpectralDensity, grid: FrequencyGrid) -> SpectralDensity:
    """Rescale so the trapezoid integral over ``grid`` equals one.

    Raises ZeroDensity unless the integral is finite and at least 1e-300:
    when the grid sees (numerically) no density at all, e.g. a table whose
    support lies entirely outside the grid, or when a sample is not finite.
    """
    total = float(np.sum(sd.sample(grid) * grid.trapezoid_weights()))
    if not 1e-300 <= total < math.inf:
        raise ZeroDensity(
            f"{sd.describe()} integrates to {total!r} on the working grid; "
            "need a finite integral of at least 1e-300")
    return replace(sd, scale=sd.scale / total)


class EnvelopeEvaluator:
    """Precomputed trapezoid weights for fast envelope evaluation.

    Samples the density once and exposes vectorised E1/E2;
    :meth:`from_weights` takes the weights q_k = d_k w_k directly.  A delay
    array that is uniform up to round-off (at least two points) goes
    through the chirp-z transform; its result differs from the direct sum
    by round-off only, below 1e-12 for unit-integral densities on the
    bundled grids.  Scalars and non-uniform arrays use the direct sum,
    processed in chunks to bound the cos() workspace.
    """

    _CHUNK = 8192

    def __init__(self, sd: SpectralDensity, grid: FrequencyGrid):
        self.grid = grid
        self._weights = sd.sample(grid) * grid.trapezoid_weights()

    @classmethod
    def from_weights(cls, weights: np.ndarray, grid: FrequencyGrid) -> "EnvelopeEvaluator":
        env = cls.__new__(cls)
        env.grid, env._weights = grid, np.asarray(weights, dtype=float)
        return env

    def first_order(self, tau):
        """E1(tau) = sum_k w_k d_k cos(W_k tau); scalar in, scalar out."""
        if np.ndim(tau) == 0:
            return float(self._direct(np.atleast_1d(np.asarray(tau, dtype=float)))[0])
        tau_arr = np.asarray(tau, dtype=float)
        step = _uniform_step(tau_arr)
        if step is None:
            return self._direct(tau_arr)
        return chirp_z(self._weights, self.grid.spacing, tau_arr[0], step, tau_arr.size).real

    def second_order(self, tau):
        """E2(tau) = E1(2 tau), same weights, hence the identity is exact."""
        return self.first_order(2.0 * np.asarray(tau, dtype=float))

    def _direct(self, tau_arr: np.ndarray) -> np.ndarray:
        out = np.empty_like(tau_arr)
        omegas = self.grid.omegas()
        for start in range(0, tau_arr.size, self._CHUNK):
            block = tau_arr[start:start + self._CHUNK]
            out[start:start + self._CHUNK] = np.cos(np.outer(block, omegas)) @ self._weights
        return out


def chirp_z(u: np.ndarray, h: float, tau0: float, step: float, count: int) -> np.ndarray:
    """sum_n u[..., n] exp(i n h tau_j) for tau_j = tau0 + j step, j < count.

    ``n`` is the last axis's index centred on its middle entry (the length
    is odd); leading axes are independent rows.  With tau_j = t_c + m step,
    both indices centred to keep the chirp phases small,
    n m = (n^2 + m^2 - (m - n)^2) / 2 turns the sum into a linear
    convolution of two chirps, done by zero-padded FFT (Bluestein).

    The kernel's FFT is taken once; the rows then pass one at a time
    through one work buffer of the padded length L, transformed in place.
    Beside the input and the output, the workspace is O(L) whatever the
    number of rows.
    """
    size = u.shape[-1]
    theta = h * step
    centre = tau0 + step * (count - 1) / 2.0
    n = np.arange(size) - (size - 1) // 2
    m = np.arange(count) - (count - 1) / 2.0
    chirp = np.exp(1j * (h * centre * n + 0.5 * theta * n**2))
    post = np.exp(0.5j * theta * m**2)
    lags = np.arange(1 - size, count)  # j - k over every pair
    diff = lags + ((size - 1) // 2 - (count - 1) / 2.0)  # m - n at that lag
    length = 1 << (size + count - 2).bit_length()  # power of two >= T + M - 1
    kernel = np.zeros(length, dtype=complex)
    kernel[lags % length] = np.exp(-0.5j * theta * diff**2)
    np.fft.fft(kernel, out=kernel)
    out = np.empty(u.shape[:-1] + (count,), dtype=complex)
    buf = np.empty(length, dtype=complex)
    for row, dest in zip(u.reshape(-1, size), out.reshape(-1, count)):
        np.multiply(row, chirp, out=buf[:size])
        buf[size:] = 0.0
        np.fft.fft(buf, out=buf)
        buf *= kernel
        np.fft.ifft(buf, out=buf)
        np.multiply(post, buf[:count], out=dest)
    return out


def _uniform_step(tau: np.ndarray) -> Optional[float]:
    """Step of a 1-d axis of at least two points equally spaced up to
    round-off, else None.

    tau0 + j step carries a rounding error of a few ulps of the largest
    |tau| per point, so the spacings may differ from the mean step by that
    much; NaN or inf anywhere makes the comparison false.
    """
    if tau.ndim != 1 or tau.size < 2:
        return None
    step = (tau[-1] - tau[0]) / (tau.size - 1)
    tol = 8.0 * np.finfo(float).eps * float(np.max(np.abs(tau)))
    return float(step) if np.all(np.abs(np.diff(tau) - step) <= tol) else None


def envelope_first_order(sd: SpectralDensity, grid: FrequencyGrid, tau) -> float:
    """Singles envelope E1(tau) for a normalized density.

    Pure function: E1(0) = 1 for a unit-integral density and |E1| <= 1
    always (the weights are nonnegative and sum to the integral).
    """
    return EnvelopeEvaluator(sd, grid).first_order(tau)


def envelope_second_order(sd: SpectralDensity, grid: FrequencyGrid, tau) -> float:
    """Coincidence-dip envelope E2(tau) = E1(2 tau) under the same rule."""
    return EnvelopeEvaluator(sd, grid).second_order(tau)
