"""The dense tensor and the conjugate beam splitter: the tests' references
for the oracle's branch sum.

``DenseTensorState`` holds all (2 N M)^2 ordered two-photon amplitudes over
(path, position, frequency) modes, so it is feasible only on small grids.
It applies ``modesim._photon_map`` to each photon slot, as the branch sum
does, so both keep one definition of each element, and it gives the same
path-pair norm table: ``apply_pipeline``, ``singles_rate``,
``coincidence_rate`` and ``total_norm`` take either state.

``ConjugateBeamSplitter`` has -i on the cross terms where the package's
splitter has +i.  No rate depends on that convention; the tests check it on
the scan, the per-delay branch sum and the dense tensor.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

import biphoton as bp
from biphoton.errors import BiphotonError
from biphoton.modesim import _PATHS, _swapped_branches

DEFAULT_DENSE_BUDGET = 1 << 30  # bytes

_SWAP = (3, 4, 5, 0, 1, 2)  # exchange the photon slots of a dense tensor


class BudgetExceeded(BiphotonError):
    """Dense tensor expansion would exceed the memory budget."""


class ConjugateBeamSplitter(bp.BeamSplitter):
    """The 50:50 splitter a -> (a - i b)/sqrt(2), b -> (-i a + b)/sqrt(2)."""

    def matrix(self) -> np.ndarray:
        return np.array([[1.0, -1j], [-1j, 1.0]]) / math.sqrt(2.0)


SPLITTERS = {"symmetric": bp.BeamSplitter, "conjugate": ConjugateBeamSplitter}


@dataclass(frozen=True)
class DenseTensorState:
    """Full ordered amplitude tensor over (path, position, frequency)^2."""

    frequency_grid: bp.FrequencyGrid
    pump_frequency: float
    tensor: np.ndarray  # shape (2, N, M, 2, N, M)

    def path_pair_norms(self):
        """Squared amplitude norm per (photon 1 path, photon 2 path)."""
        return {(p, q): float(np.sum(np.abs(self.tensor[i, :, :, j]) ** 2))
                for i, p in enumerate(_PATHS) for j, q in enumerate(_PATHS)}

    def _mapped(self, photon):
        """Apply the map to the first photon slot, then (by swapping) the second."""
        once = _dense_first_photon(photon, self.tensor).transpose(_SWAP)
        tensor = _dense_first_photon(photon, once).transpose(_SWAP)
        return replace(self, tensor=tensor)


def to_dense(state: bp.BranchSumState) -> DenseTensorState:
    """Expand the branch sum into the dense tensor, if it fits DEFAULT_DENSE_BUDGET."""
    n = state.branches[0].spatial.size
    m = state.frequency_grid.point_count
    amplitudes = (2 * n * m) ** 2
    required = amplitudes * 16  # complex128
    if required > DEFAULT_DENSE_BUDGET:
        raise BudgetExceeded(
            f"dense tensor needs {required} bytes > budget {DEFAULT_DENSE_BUDGET}")
    tensor = np.zeros((2, n, m, 2, n, m), dtype=complex)
    for b in state.branches:
        p1, p2 = _PATHS.index(b.path1), _PATHS.index(b.path2)
        tensor[p1, :, :, p2, :, :] += b.weight * np.einsum(
            "ij,kl->ikjl", b.spatial.to_full(), b.spectral.to_full())
    return DenseTensorState(state.frequency_grid, state.pump_frequency, tensor)


def _dense_first_photon(photon, tensor: np.ndarray) -> np.ndarray:
    out = np.zeros_like(tensor)
    for col, path in enumerate(_PATHS):
        for o in photon[path]:
            amplitude = tensor[col, ::-1] if o.flip else tensor[col]
            if o.phases is not None:
                amplitude = amplitude * o.phases[None, :, None, None, None]
            out[_PATHS.index(o.path)] += o.amplitude * amplitude
    return out


def _minus_swap(state):
    """The state minus its exchange swap, in the state's own representation."""
    if isinstance(state, DenseTensorState):
        return replace(state, tensor=state.tensor - state.tensor.transpose(_SWAP))
    return replace(state, branches=state.branches + tuple(
        replace(b, weight=-b.weight) for b in _swapped_branches(state.branches)))


def exchange_asymmetry(state) -> float:
    """Norm of (A - A_swapped); zero for a bosonic (symmetric) state."""
    return math.sqrt(max(0.0, bp.total_norm(_minus_swap(state))))
