"""Two-photon states and their one-photon reduction.

The two-photon description is structurally separable between the spatial
and spectral sectors: each sector is chosen independently and no
cross-correlation between them can be expressed.  The sectors themselves
may be entangled internally -- the default down-conversion state is
position-correlated and frequency-anti-correlated.

Both photons enter one port, so every one-photon quantity belongs to the
exchange-symmetrised pair.  :func:`exchange_overlaps` gives what the
closed forms read: the flip overlap alpha, the parity overlap b and the
envelope weights q, which for an anti-correlated spectrum are also the
frequency-diagonal one-photon spectral sector.  The spatial sector of the
one-photon state is :func:`reduced_spatial_operator`, the partial trace
over the second photon slot.  For a correlated pump it is
position-diagonal (fully incoherent) whatever the pump profile: the
photons are jointly coherent but individually not.
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
    _require_unit_norm,
    _unit_norm_samples,
    default_spatial_grid,
    gaussian_amplitude,
)
from .spectral import (
    FrequencyGrid,
    Rectangular,
    SpectralDensity,
    _SymmetricGrid,
    default_frequency_grid,
    normalize,
)

__all__ = [
    "CorrelatedPump",
    "GeneralSpatial",
    "AntiCorrelated",
    "GeneralSpectral",
    "TwoPhotonState",
    "ExchangeOverlaps",
    "exchange_overlaps",
    "reduced_spatial_operator",
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
class _JointAmplitude:
    """Arbitrary two-photon amplitude a(u_i, u_j) on one grid for both
    photons, normalised to sum |a_ij|^2 h^2 = 1 (h the grid spacing)."""

    grid: _SymmetricGrid
    amplitude: np.ndarray

    _sector = ""  # "spatial" or "spectral"

    def __post_init__(self):
        a = np.array(self.amplitude, dtype=complex)
        n = self.grid.point_count
        if a.shape != (n, n):
            raise ValueError("amplitude must have one row and one column per grid node")
        _require_unit_norm(a, self.grid.spacing**2, f"joint {self._sector}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitude", a)

    @classmethod
    def from_samples(cls, grid: _SymmetricGrid, amplitude):
        return cls(grid, _unit_norm_samples(amplitude, grid.spacing**2))

    def describe(self) -> str:
        return f"general_{self._sector}"


class GeneralSpatial(_JointAmplitude):
    """Arbitrary two-photon transverse amplitude phi(x_i, x_j) on a SpatialGrid."""

    _sector = "spatial"

    @classmethod
    def product(cls, phi1: SpatialAmplitude, phi2: SpatialAmplitude) -> "GeneralSpatial":
        if phi1.grid != phi2.grid:
            raise ValueError("amplitudes must share a grid")
        return cls(phi1.grid, np.outer(phi1.values, phi2.values))


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


class GeneralSpectral(_JointAmplitude):
    """Arbitrary two-photon spectral amplitude psi(W_k, W_l) on a FrequencyGrid."""

    _sector = "spectral"


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


def _working_frequency_grid(
    state: TwoPhotonState, frequency_grid: Optional[FrequencyGrid]
) -> FrequencyGrid:
    """The grid given, else the density's default grid, else the general
    spectral sector's own grid."""
    if frequency_grid is not None:
        return frequency_grid
    if isinstance(state.spectral, AntiCorrelated):
        return default_frequency_grid(state.spectral.density)
    return state.spectral.grid


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
    grid = _working_frequency_grid(state, frequency_grid)
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
