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
frequency-diagonal one-photon spectral sector.  Every sector carries its
grid, so a state says once where both engines sample it.  Each sector
kind is one entry of ``_SECTORS`` here and one of the simulator's table,
and :class:`TwoPhotonState` accepts no other type.  The one-photon spatial
sector is :func:`reduced_spatial_operator`, the partial trace over the
second photon slot.  For a correlated pump it is position-diagonal (fully
incoherent) whatever the pump profile: the photons are jointly coherent
but individually not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union, get_args

import numpy as np

from . import units
from .errors import BiphotonError
from .spatial import (
    SpatialAmplitude,
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
    down-conversion with a monochromatic pump.  ``grid`` is where both
    engines sample the density, e.g. ``default_frequency_grid(density)``.
    """

    density: SpectralDensity
    grid: FrequencyGrid

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
        for field, union, grid_kind in (("spatial", SpatialSector, SpatialGrid),
                                        ("spectral", SpectralSector, FrequencyGrid)):
            sector = getattr(self, field)
            kinds, given = get_args(union), type(sector)
            if given not in kinds:  # by exact type: each engine's table has an entry
                names = ", ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"{field} must be one of {names}, got {given.__name__}")
            if type(sector.grid) is not grid_kind:  # the engines read its kind's nodes
                raise TypeError(f"{field}.grid must be a {grid_kind.__name__}, "
                                f"got {type(sector.grid).__name__}")
        if not 0.0 < self.pump_frequency < math.inf:
            raise ValueError(
                f"pump_frequency must be finite and positive, got {self.pump_frequency!r}")

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
    weights: np.ndarray  # envelope weights q_k on the spectral sector's grid


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


def _joint_overlaps(spatial: GeneralSpatial) -> Tuple[float, float, bool]:
    a, symmetric = _exchange_symmetric(spatial.amplitude)
    return _overlap_ratio(a, a[::-1, :]), _overlap_ratio(a, a[::-1, ::-1]), symmetric


def _anticorrelated_weights(spectral: AntiCorrelated):
    grid = spectral.grid
    d = normalize(spectral.density, grid).sample(grid)
    if spectral.density.is_even_on(grid):
        return d * grid.trapezoid_weights(), True
    weights = (np.sqrt(d) + np.sqrt(d[::-1])) ** 2 * grid.trapezoid_weights()
    return weights / np.sum(weights), False


def _no_closed_form(spectral: GeneralSpectral):
    raise ValueError("closed forms require an anti-correlated spectral sector; "
                     "use the discrete-mode engine for general spectra")


# The closed engine's sector table, keyed by exact type: a spatial kind gives
# (alpha, b, symmetric), a spectral kind (weights on its grid, symmetric).
_SECTORS = {
    CorrelatedPump: lambda s: (float(s.pump.position_weights()[s.grid.center_index]),
                               _overlap_ratio(s.pump.values, s.pump.flipped()), True),
    GeneralSpatial: _joint_overlaps,
    AntiCorrelated: _anticorrelated_weights,
    GeneralSpectral: _no_closed_form,
}


def exchange_overlaps(state: TwoPhotonState) -> ExchangeOverlaps:
    """alpha, b and the envelope weights q of the exchange-symmetrised state.

    Both photons enter one port, so the rates see (A F + A^T F^T) / 2 for
    spatial amplitude A and spectral amplitude F.  If one sector equals its
    transpose exactly (the simulator's test), that is a product again: A
    becomes A + A^T, or sqrt(d(W)) becomes the even sqrt(d(W)) + sqrt(d(-W)).
    Then alpha = <A, A(-x1, x2)> / <A, A> (|phi(0)|^2 dx for a correlated
    pump), b = <A, A(-x1, -x2)> / <A, A> and q = d times the trapezoid
    weights of the spectral sector's grid.  A general spectral sector
    raises ValueError, and a state asymmetric in both sectors
    BiphotonError: neither has a closed form.
    """
    alpha, b, spatial_symmetric = _SECTORS[type(state.spatial)](state.spatial)
    weights, spectral_symmetric = _SECTORS[type(state.spectral)](state.spectral)
    if not (spatial_symmetric or spectral_symmetric):
        raise BiphotonError(
            "both the spatial amplitude and the spectral density are exchange "
            "asymmetric; no closed form applies -- use the discrete-mode engine")
    return ExchangeOverlaps(alpha, b, weights)


def reduced_spatial_operator(state: TwoPhotonState) -> np.ndarray:
    """Spatial sector of the reduced one-photon state, as a read-only
    unit-trace matrix ``rho(x_i, x_j) dx`` on the state's spatial grid.

    A correlated pump reduces to the position-diagonal mixture with weights
    |phi(x_i)|^2 dx; a general amplitude reduces by the slot partial trace
    rho = A A^dagger of its exchange-symmetrised form (A + A^T, renormalised,
    when A != A^T), the state both photons carry once they share a port.
    The result is made exactly Hermitian, (m + m^dagger) / 2.
    """
    if isinstance(state.spatial, CorrelatedPump):
        m = np.diag(state.spatial.pump.position_weights().astype(complex))
    else:
        a, symmetric = _exchange_symmetric(state.spatial.amplitude)
        a = a * state.spatial.grid.spacing
        if not symmetric:
            a = a / np.linalg.norm(a)
        m = a @ a.conj().T
    m = 0.5 * (m + m.conj().T)
    m.setflags(write=False)
    return m


def default_spdc_state(
    spatial_grid: SpatialGrid | None = None,
    pump_waist: float = DEFAULT_PUMP_WAIST,
) -> TwoPhotonState:
    """Collinear degenerate down-conversion defaults.

    A 405 nm monochromatic pump with a 1 mm Gaussian waist, detected behind
    10 nm rectangular bandpass filters centered at 810 nm.  The filter
    passband is taken as the effective one-photon spectral density (the
    intrinsic down-conversion bandwidth is broader than the filters and is
    not modelled), sampled on its ``default_frequency_grid``.
    """
    grid = spatial_grid or default_spatial_grid()
    pump = gaussian_amplitude(grid, waist=pump_waist)
    width = units.bandwidth_to_angular(DEFAULT_FILTER_CENTER, DEFAULT_FILTER_BANDWIDTH)
    density = SpectralDensity(Rectangular(width))
    return TwoPhotonState(
        spatial=CorrelatedPump(pump),
        spectral=AntiCorrelated(density, default_frequency_grid(density)),
        pump_frequency=units.omega_from_wavelength(DEFAULT_PUMP_WAVELENGTH),
    )
