"""Transverse spatial amplitudes, density operators and parity functionals.

Two functionals of the transverse degree of freedom describe the
mirror-unbalanced interferometer:

* the flip overlap  alpha = integral dx rho(-x, x)  of the one-photon
  density operator, which weights the singles fringe amplitude, and
* the pump parity overlap  beta = integral dx phi*(x) phi(-x)  of the pump
  amplitude, which weights the coincidence fringes.

The closed engine reads alpha and b from ``states.exchange_overlaps``
instead.  These two stay as the independent reference: the benchmark's
checks (``perfbench/checks.py``) compare oracle coincidences against beta.

Both are real (they are traces of products of Hermitian operators), so the
phase of either overlap is 0 or pi whenever its magnitude is nonzero.

Discretization convention: delta functions in x become Kronecker deltas
carrying a 1/dx weight that is absorbed into a unit-trace matrix,
``matrix[i, j] = rho(x_i, x_j) * dx``.  Traces and overlaps are then plain
sums, dimensionless and stable under grid refinement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotPositive
from .spectral import _SymmetricGrid

__all__ = [
    "SpatialGrid",
    "SpatialAmplitude",
    "SpatialDensityOperator",
    "ParityOverlap",
    "default_spatial_grid",
    "gaussian_amplitude",
    "hermite_gauss1_amplitude",
    "flip_overlap",
    "pump_parity_overlap",
]

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-9  # on a unit norm, trace or weight sum
EIGENVALUE_FLOOR = -1e-10


class SpatialGrid(_SymmetricGrid):
    """Uniform transverse grid, symmetric about x = 0 with x = 0 a node."""

    def positions(self) -> np.ndarray:
        return self._nodes()


def default_spatial_grid(point_count: int = 257, half_width: float = 3e-3) -> SpatialGrid:
    """3 mm half width resolves a millimetre-scale pump waist comfortably."""
    return SpatialGrid(half_width=half_width, point_count=point_count)


def _unit_norm_samples(samples, cell: float) -> np.ndarray:
    """``samples`` as complex, scaled to sum |a|^2 cell = 1 (cell dx, or dx^2 for a pair)."""
    a = np.asarray(samples, dtype=complex)
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.sum(np.abs(a) ** 2)) * cell)
    if norm == math.inf or norm < 1e-150:
        # |a|^2 overflows or loses its digits to underflow: divide by the largest part first
        peak = np.max(np.maximum(np.abs(a.real), np.abs(a.imag)))
        if peak == 0.0:
            raise ValueError("cannot normalize a zero amplitude")
        a = a / peak
        norm = math.sqrt(float(np.sum(np.abs(a) ** 2)) * cell)
    return a / norm


def _require_unit_norm(a: np.ndarray, cell: float, what: str) -> None:
    total = float(np.sum(np.abs(a) ** 2)) * cell
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValueError(f"{what} norm must be 1, got {total!r}")


@dataclass(frozen=True)
class SpatialAmplitude:
    """Complex transverse amplitude phi(x) with sum |phi|^2 dx = 1."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.grid.point_count,):
            raise ValueError("values must match the grid point count")
        _require_unit_norm(v, self.grid.spacing, "amplitude")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_samples(cls, grid: SpatialGrid, values: Sequence[complex]) -> "SpatialAmplitude":
        return cls(grid, _unit_norm_samples(values, grid.spacing))

    def flipped(self) -> np.ndarray:
        """Samples of phi(-x); exact index reversal on the symmetric grid."""
        return self.values[::-1]

    def position_weights(self) -> np.ndarray:
        """|phi(x_i)|^2 dx, the weights of the position-diagonal mixture."""
        return np.abs(self.values) ** 2 * self.grid.spacing


def gaussian_amplitude(grid: SpatialGrid, waist: float, center: float = 0.0) -> SpatialAmplitude:
    """Gaussian beam profile exp(-(x - center)^2 / waist^2), normalized.

    ``waist`` is the 1/e^2 intensity radius, the usual beam-waist
    convention.
    """
    x = grid.positions()
    return SpatialAmplitude.from_samples(grid, np.exp(-((x - center) / waist) ** 2))


def hermite_gauss1_amplitude(grid: SpatialGrid, waist: float) -> SpatialAmplitude:
    """First odd Hermite-Gauss mode, x * exp(-x^2 / waist^2), normalized."""
    x = grid.positions()
    return SpatialAmplitude.from_samples(grid, x * np.exp(-(x / waist) ** 2))


@dataclass(frozen=True)
class SpatialDensityOperator:
    """One-photon transverse density operator in unit-trace discretization."""

    grid: SpatialGrid
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = self.grid.point_count
        if m.shape != (n, n):
            raise ValueError("matrix must have one row and one column per grid node")
        scale = max(1.0, float(np.max(np.abs(m))))
        if not float(np.max(np.abs(m - m.conj().T))) <= HERMITICITY_TOL * scale:
            raise ValueError("matrix must be finite and Hermitian")
        tr = float(np.real(np.trace(m)))
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"trace must be 1, got {tr!r}")
        m = 0.5 * (m + m.conj().T)
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < EIGENVALUE_FLOOR:
            raise NotPositive(f"eigenvalue {low!r} below tolerance {EIGENVALUE_FLOOR}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def coherent(cls, phi: SpatialAmplitude) -> "SpatialDensityOperator":
        """Pure state: rho = |phi><phi|, matrix = outer(phi, phi*) dx."""
        v = phi.values
        return cls(phi.grid, np.outer(v, v.conj()) * phi.grid.spacing)

    @classmethod
    def incoherent(cls, phi: SpatialAmplitude) -> "SpatialDensityOperator":
        """Position-diagonal mixture with weights |phi(x_i)|^2 dx."""
        return cls(phi.grid, np.diag(phi.position_weights().astype(complex)))


@dataclass(frozen=True)
class ParityOverlap:
    """Polar form of a parity functional: magnitude in [0, 1], phase in rad."""

    magnitude: float
    phase: float

    def __post_init__(self):
        if self.magnitude > 1.0 + NORM_TOL:
            raise ValueError(f"overlap magnitude {self.magnitude!r} exceeds 1")

    @classmethod
    def from_complex(cls, z: complex) -> "ParityOverlap":
        return cls(magnitude=abs(z), phase=cmath.phase(z) if abs(z) > 0.0 else 0.0)

    def as_complex(self) -> complex:
        return self.magnitude * cmath.exp(1j * self.phase)


def flip_overlap(rho: SpatialDensityOperator) -> ParityOverlap:
    """Overlap of a one-photon state with its spatially flipped copy.

    Discretized anti-diagonal sum: alpha = sum_i matrix[N-1-i, i], which is
    the unit-trace rendering of integral dx rho(-x, x).  For an incoherent
    (position-diagonal) operator only the x = 0 node survives, so the
    magnitude is |phi(0)|^2 dx and vanishes linearly with the spacing.
    """
    m = rho.matrix
    alpha = complex(np.sum(m[::-1, :].diagonal()))
    return ParityOverlap.from_complex(alpha)


def pump_parity_overlap(phi: SpatialAmplitude) -> ParityOverlap:
    """beta = sum_i phi*(x_i) phi(-x_i) dx; (1, 0) even, (1, pi) odd."""
    beta = complex(np.sum(phi.values.conj() * phi.flipped()) * phi.grid.spacing)
    return ParityOverlap.from_complex(beta)
