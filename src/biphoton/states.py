"""Two-photon and reduced one-photon states.

The two-photon description is structurally separable between the spatial
and spectral sectors: each sector is chosen independently and no
cross-correlation between them can be expressed.  The sectors themselves
may be entangled internally -- the default down-conversion state is
position-correlated and frequency-anti-correlated.

Reduction to the one-photon state traces over the second photon slot of
each sector.  For the correlated-pump spatial sector this produces a
position-diagonal (fully incoherent) operator regardless of the pump
profile: the photons are jointly coherent but individually not.  The
closed forms read the exchange-symmetrised state (:func:`exchange_overlaps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from . import units
from .errors import AsymmetricSpectrum
from .spatial import (
    SpatialAmplitude,
    SpatialDensityOperator,
    SpatialGrid,
    default_spatial_grid,
    gaussian_amplitude,
)
from .spectral import (
    FrequencyGrid,
    Rectangular,
    SpectralDensity,
    default_frequency_grid,
    normalize,
)

__all__ = [
    "CorrelatedPump",
    "GeneralSpatial",
    "AntiCorrelated",
    "GeneralSpectral",
    "DiagonalDensity",
    "GeneralDensity",
    "TwoPhotonState",
    "OnePhotonState",
    "ExchangeOverlaps",
    "exchange_overlaps",
    "reduced_spatial_operator",
    "reduce_to_one_photon",
    "default_spdc_state",
    "DEFAULT_PUMP_WAVELENGTH",
    "DEFAULT_FILTER_CENTER",
    "DEFAULT_FILTER_BANDWIDTH",
    "DEFAULT_PUMP_WAIST",
]

DEFAULT_PUMP_WAVELENGTH = 405e-9  # m
DEFAULT_FILTER_CENTER = 810e-9    # m
DEFAULT_FILTER_BANDWIDTH = 10e-9  # m
DEFAULT_PUMP_WAIST = 1e-3         # m

NORM_TOL = 1e-9


@dataclass(frozen=True)
class CorrelatedPump:
    """Spatial sector phi(x, x') = phi(x) delta(x - x'): both photons share
    the pump's transverse position."""

    pump: SpatialAmplitude

    @property
    def grid(self) -> SpatialGrid:
        return self.pump.grid

    def describe(self) -> str:
        return "correlated_pump"


@dataclass(frozen=True)
class GeneralSpatial:
    """Arbitrary two-photon transverse amplitude phi(x_i, x_j).

    Normalization: sum |phi_ij|^2 dx^2 = 1.
    """

    grid: SpatialGrid
    amplitude: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitude, dtype=complex)
        n = self.grid.point_count
        if a.shape != (n, n):
            raise ValueError("amplitude must be N x N for the grid")
        total = float(np.sum(np.abs(a) ** 2)) * self.grid.spacing**2
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"joint spatial norm must be 1, got {total!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitude", a)

    @classmethod
    def from_samples(cls, grid: SpatialGrid, amplitude) -> "GeneralSpatial":
        a = np.asarray(amplitude, dtype=complex)
        total = np.sqrt(np.sum(np.abs(a) ** 2) * grid.spacing**2)
        if total < 1e-150:
            raise ValueError("cannot normalize a zero amplitude")
        return cls(grid, a / total)

    @classmethod
    def product(cls, phi1: SpatialAmplitude, phi2: SpatialAmplitude) -> "GeneralSpatial":
        if phi1.grid != phi2.grid:
            raise ValueError("amplitudes must share a grid")
        return cls(phi1.grid, np.outer(phi1.values, phi2.values))

    def describe(self) -> str:
        return "general_spatial"


@dataclass(frozen=True)
class AntiCorrelated:
    """Spectral sector psi(W, W') = psi(W) delta(W + W'), zero phases.

    ``density`` is |psi(W)|^2; the amplitude used by the simulator is its
    square root.  Signal and idler detunings are exactly opposite, as for
    down-conversion with a monochromatic pump.
    """

    density: SpectralDensity

    def describe(self) -> str:
        return f"anti_correlated({self.density.describe()})"


@dataclass(frozen=True)
class GeneralSpectral:
    """Arbitrary two-photon spectral amplitude psi(W_k, W_l).

    Normalization: sum |psi_kl|^2 dW^2 = 1.
    """

    grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitude, dtype=complex)
        m = self.grid.point_count
        if a.shape != (m, m):
            raise ValueError("amplitude must be M x M for the grid")
        total = float(np.sum(np.abs(a) ** 2)) * self.grid.spacing**2
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"joint spectral norm must be 1, got {total!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitude", a)

    @classmethod
    def from_samples(cls, grid: FrequencyGrid, amplitude) -> "GeneralSpectral":
        a = np.asarray(amplitude, dtype=complex)
        total = np.sqrt(np.sum(np.abs(a) ** 2) * grid.spacing**2)
        if total < 1e-150:
            raise ValueError("cannot normalize a zero amplitude")
        return cls(grid, a / total)

    def describe(self) -> str:
        return "general_spectral"


SpatialSector = Union[CorrelatedPump, GeneralSpatial]
SpectralSector = Union[AntiCorrelated, GeneralSpectral]


@dataclass(frozen=True)
class TwoPhotonState:
    """Separable (spatial x spectral) biphoton description."""

    spatial: SpatialSector
    spectral: SpectralSector
    pump_frequency: float

    def __post_init__(self):
        if self.pump_frequency <= 0.0:
            raise ValueError("pump_frequency must be positive")

    def describe(self) -> dict:
        return {
            "spatial": self.spatial.describe(),
            "spectral": self.spectral.describe(),
            "pump_frequency": self.pump_frequency,
        }


@dataclass(frozen=True)
class DiagonalDensity:
    """Frequency-diagonal one-photon spectral sector with weights q_k
    summing to one (q_k = |psi(W_k)|^2 dW)."""

    grid: FrequencyGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.grid.point_count,):
            raise ValueError("weights must match the grid")
        if np.any(w < -1e-12):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > NORM_TOL:
            raise ValueError("weights must sum to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class GeneralDensity:
    """Full M x M Hermitian one-photon spectral density matrix, unit trace."""

    grid: FrequencyGrid
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        size = self.grid.point_count
        if m.shape != (size, size):
            raise ValueError("matrix must be M x M for the grid")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12 * scale:
            raise ValueError("matrix must be Hermitian")
        if abs(float(np.real(np.trace(m))) - 1.0) > NORM_TOL:
            raise ValueError("trace must be 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class OnePhotonState:
    """Reduced single-photon state: spatial operator, spectral sector and
    the carrier frequency (half the pump frequency)."""

    spatial: SpatialDensityOperator
    spectral: Union[DiagonalDensity, GeneralDensity]
    central_frequency: float


class ExchangeOverlaps(NamedTuple):
    """The inputs of the closed forms, see :func:`exchange_overlaps`."""

    alpha: float  # flip overlap of one photon: weights the unbalanced singles fringe
    b: float  # parity overlap of the pair: weights the unbalanced coincidence fringes
    grid: FrequencyGrid
    weights: np.ndarray  # envelope weights q_k on ``grid``


def _overlap_ratio(a: np.ndarray, moved: np.ndarray) -> float:
    # Re <a, moved> / <a, a>; <a, a> is real, so moved = a gives exactly 1.
    return float(np.sum(np.conj(a) * moved).real / np.sum(np.conj(a) * a).real)


def _exchange_symmetric(a: np.ndarray) -> Tuple[np.ndarray, bool]:
    """(A, True) if A equals its transpose exactly, the simulator's test;
    else (A + A^T, False), unnormalised."""
    if np.array_equal(a, a.T):
        return a, True
    a = a + a.T
    if not np.any(a):
        raise ValueError("the spatial amplitude has no exchange-symmetric part")
    return a, False


def exchange_overlaps(
    state: TwoPhotonState, frequency_grid: Optional[FrequencyGrid] = None
) -> ExchangeOverlaps:
    """alpha, b and the envelope weights q of the exchange-symmetrised state.

    Both photons enter one port, so the rates see (A F + A^T F^T) / 2 for
    spatial amplitude A and spectral amplitude F.  If one sector equals its
    transpose exactly (the simulator's test), that is a product again: A
    becomes A + A^T, or sqrt(d(W)) becomes the even sqrt(d(W)) + sqrt(d(-W)).
    Then alpha = <A, A(-x1, x2)> / <A, A> (|phi(0)|^2 dx for a correlated
    pump), b = <A, A(-x1, -x2)> / <A, A> and q = d times the trapezoid
    weights.  A general spectral sector raises ValueError, and a state
    asymmetric in both sectors AsymmetricSpectrum: neither has a closed form.
    """
    if not isinstance(state.spectral, AntiCorrelated):
        raise ValueError(
            "closed forms require an anti-correlated spectral sector; "
            "use the discrete-mode engine for general spectra")
    spatial = state.spatial
    if isinstance(spatial, CorrelatedPump):
        pump = spatial.pump
        alpha = float(pump.position_weights()[pump.grid.center_index])
        b = _overlap_ratio(pump.values, pump.flipped())
        spatial_symmetric = True
    else:
        a, spatial_symmetric = _exchange_symmetric(spatial.amplitude)
        alpha = _overlap_ratio(a, a[::-1, :])
        b = _overlap_ratio(a, a[::-1, ::-1])

    density = state.spectral.density
    grid = frequency_grid or default_frequency_grid(density)
    d = normalize(density, grid).sample(grid)
    if density.is_even_on(grid):
        weights = d * grid.trapezoid_weights()
    elif not spatial_symmetric:
        raise AsymmetricSpectrum(
            "both the spatial amplitude and the spectral density are exchange "
            "asymmetric; no closed form applies -- use the discrete-mode engine")
    else:
        weights = (np.sqrt(d) + np.sqrt(d[::-1])) ** 2 * grid.trapezoid_weights()
        weights = weights / np.sum(weights)
    return ExchangeOverlaps(alpha, b, grid, weights)


def reduced_spatial_operator(state: TwoPhotonState) -> SpatialDensityOperator:
    """Spatial sector of the reduced one-photon state.

    A correlated pump reduces to the position-diagonal mixture; a general
    amplitude reduces by the slot partial trace rho = A A^dagger of its
    exchange-symmetrised form (A + A^T, renormalised, when A != A^T), the
    state both photons carry once they share a port.
    """
    if isinstance(state.spatial, CorrelatedPump):
        return SpatialDensityOperator.incoherent(state.spatial.pump)
    a, symmetric = _exchange_symmetric(state.spatial.amplitude)
    a = a * state.spatial.grid.spacing
    if not symmetric:
        a = a / np.linalg.norm(a)
    return SpatialDensityOperator(state.spatial.grid, a @ a.conj().T)


def reduce_to_one_photon(
    state: TwoPhotonState, frequency_grid: FrequencyGrid | None = None
) -> OnePhotonState:
    """Trace out one photon slot of each sector.

    Correlated pump -> incoherent (position-diagonal) spatial operator;
    anti-correlated spectrum -> frequency-diagonal spectral sector with the
    envelope weights q of :func:`exchange_overlaps`.  General sectors reduce
    by an explicit partial trace, rho = A A^dagger in the discrete
    convention; a general spatial amplitude is exchange-symmetrised first
    (see :func:`reduced_spatial_operator`).  Both photons share one port, so
    the one-photon state is that of the exchange-symmetrised pair; a pair
    asymmetric in both sectors has no product reduction and raises
    AsymmetricSpectrum.
    """
    rho_x = reduced_spatial_operator(state)

    if isinstance(state.spectral, AntiCorrelated):
        ov = exchange_overlaps(state, frequency_grid)
        spectral: Union[DiagonalDensity, GeneralDensity] = DiagonalDensity(
            ov.grid, ov.weights / ov.weights.sum())
    else:
        a = state.spectral.amplitude * state.spectral.grid.spacing
        spectral = GeneralDensity(state.spectral.grid, a @ a.conj().T)

    return OnePhotonState(
        spatial=rho_x,
        spectral=spectral,
        central_frequency=state.pump_frequency / 2.0,
    )


def default_spdc_state(
    spatial_grid: SpatialGrid | None = None,
    pump_waist: float = DEFAULT_PUMP_WAIST,
) -> TwoPhotonState:
    """Collinear degenerate down-conversion defaults.

    A 405 nm monochromatic pump with a 1 mm Gaussian waist, detected behind
    10 nm rectangular bandpass filters centered at 810 nm.  The filter
    passband is taken as the effective one-photon spectral density (the
    intrinsic down-conversion bandwidth is broader than the filters and is
    not modelled).
    """
    grid = spatial_grid or default_spatial_grid()
    pump = gaussian_amplitude(grid, waist=pump_waist)
    width = units.bandwidth_to_angular(DEFAULT_FILTER_CENTER, DEFAULT_FILTER_BANDWIDTH)
    return TwoPhotonState(
        spatial=CorrelatedPump(pump),
        spectral=AntiCorrelated(SpectralDensity(Rectangular(width))),
        pump_frequency=units.omega_from_wavelength(DEFAULT_PUMP_WAVELENGTH),
    )
