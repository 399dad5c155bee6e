"""Brute-force discrete-mode two-photon simulator.

Independent validation engine for the closed-form interferograms.  The
two-photon state lives on (path x position x frequency) modes, and rates
are mode-summed detection probabilities.  Nothing here knows the closed
forms: agreement between the two engines is the package's core self-check,
and the simulator also covers the states with no closed form: a general
spectral sector, or both sectors exchange asymmetric.

Each optical element is defined once, as a single-photon map: every input
path goes to one or more outcomes (output path, amplitude, position flip or
not, spectral phases or none).  Each representation applies that map to
each photon slot and holds no element-specific logic of its own:

* a branch-sum form, a short list of product terms (path pair, spatial
  factor, spectral factor).  Factors stay diagonal / anti-diagonal for
  correlated inputs, so memory is O(N + M) per branch and default grids run
  at interactive speed.  Branches are never merged: each beam splitter
  multiplies their count by at most four, so the two-splitter pipeline ends
  with at most 16 per initial branch;
* a dense tensor over all (2 N M)^2 ordered two-photon amplitudes, feasible
  only for small grids, used to cross-check the branch-sum bookkeeping;
* a one-photon mixture over coherent spatial modes, for mixture-averaged
  singles.

The branch sum and the dense tensor read rates out through one port rule
applied to their table of path-pair norms.

A delay scan runs the branch sum once, at zero delay: the branches do not
depend on the delay, and each records how many delay phases each of its
photons received.  Every path-pair norm is then a sum of terms
g exp(-i m w_p tau / 2) exp(i n h tau) with small integers m and n, and one
chirp-z call (``spectral.chirp_z``) evaluates all of them on the whole delay
axis; the same port rule reads the rates out, elementwise.  The per-delay
branch sum stays the route for a single delay and the reference the scan
is tested against.

Conventions: the 50:50 beam splitter maps a -> (a + i b)/sqrt(2),
b -> (i a + b)/sqrt(2) ("symmetric"); the alternative "conjugate"
convention carries -i on the cross terms.  Reported rates are convention
invariant and that is verified by tests rather than assumed.  A delay tau
in one arm multiplies each photon amplitude in that arm by
exp(-i (w_p/2 + W_k) tau); a spatial flip reverses the position index.
Rates are normalized so the incoherent background equals one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    BudgetExceeded,
    GridAsymmetry,
    IncompletePipeline,
    UnknownElement,
)
from .interferometer import Interferogram, InterferometerConfig, MZIM, _scan_axis
from .spatial import SpatialGrid, eigendecompose
from .spectral import FrequencyGrid, chirp_z, normalize
from .states import (
    AntiCorrelated,
    CorrelatedPump,
    DiagonalDensity,
    GeneralSpatial,
    GeneralSpectral,
    TwoPhotonState,
    _working_frequency_grid,
    reduce_to_one_photon,
)

__all__ = [
    "BeamSplitter",
    "Delay",
    "SpatialFlip",
    "RelabelOutputs",
    "build_pipeline",
    "Factor",
    "Branch",
    "BranchSumState",
    "DenseTensorState",
    "build_initial_state",
    "apply_element",
    "apply_pipeline",
    "coincidence_rate",
    "singles_rate",
    "total_norm",
    "exchange_asymmetry",
    "simulate_mixture",
    "to_dense",
    "oracle_scan",
    "SYMMETRIC",
    "CONJUGATE",
]

SYMMETRIC = "symmetric"
CONJUGATE = "conjugate"

DEFAULT_DENSE_BUDGET = 1 << 30  # bytes

_INPUT_PATHS = ("a", "b")
_OUTPUT_PATHS = ("c", "d")
_PATH_INDEX = {p: i for paths in (_INPUT_PATHS, _OUTPUT_PATHS) for i, p in enumerate(paths)}


# ---------------------------------------------------------------------------
# pipeline elements


@dataclass(frozen=True)
class BeamSplitter:
    convention: str = SYMMETRIC

    def matrix(self) -> np.ndarray:
        cross = 1j if self.convention == SYMMETRIC else -1j
        if self.convention not in (SYMMETRIC, CONJUGATE):
            raise ValueError(f"unknown beam-splitter convention {self.convention!r}")
        return np.array([[1.0, cross], [cross, 1.0]], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class Delay:
    arm: str
    tau: float
    pump_frequency: float


@dataclass(frozen=True)
class SpatialFlip:
    arm: str


@dataclass(frozen=True)
class RelabelOutputs:
    pass


Element = Union[BeamSplitter, Delay, SpatialFlip, RelabelOutputs]


class _Outcome(NamedTuple):
    """Where an element sends one photon, and what it does to it on the way."""

    path: str
    amplitude: complex
    flip: bool  # reverse the position index
    phases: Optional[np.ndarray]  # per-frequency phase factors, or None


_PhotonMap = Dict[str, List[_Outcome]]


def _photon_map(element: Element, frequency_grid: FrequencyGrid,
                relabeled: bool) -> Tuple[_PhotonMap, bool]:
    """One element's action on one photon, and whether outputs are relabelled after it.

    The map sends each input path to its outcomes.  This is the only
    definition of what an element does; every representation applies it to
    each photon slot.
    """
    if relabeled:
        raise IncompletePipeline("cannot add elements after output relabelling")
    if isinstance(element, BeamSplitter):
        u = element.matrix()
        return {p: [_Outcome(q, u[row, col], False, None)
                    for row, q in enumerate(_INPUT_PATHS) if u[row, col] != 0.0]
                for col, p in enumerate(_INPUT_PATHS)}, False
    if isinstance(element, RelabelOutputs):
        return {p: [_Outcome(q, 1.0, False, None)]
                for p, q in zip(_INPUT_PATHS, _OUTPUT_PATHS)}, True
    if isinstance(element, Delay):
        phases = np.exp(
            -1j * (element.pump_frequency / 2.0 + frequency_grid.omegas()) * element.tau)
        in_arm = _Outcome(element.arm, 1.0, False, phases)
    elif isinstance(element, SpatialFlip):
        in_arm = _Outcome(element.arm, 1.0, True, None)
    else:
        raise UnknownElement(f"unknown element {element!r}")
    if element.arm not in _INPUT_PATHS:
        raise ValueError(f"arms are labelled 'a' and 'b', got {element.arm!r}")
    return {p: [in_arm if p == element.arm else _Outcome(p, 1.0, False, None)]
            for p in _INPUT_PATHS}, False


def build_pipeline(
    cfg: InterferometerConfig, tau: float, convention: str = SYMMETRIC
) -> List[Element]:
    """Element sequence for the configured interferometer at delay tau."""
    elements: List[Element] = [BeamSplitter(convention)]
    elements.append(Delay(cfg.delay_arm, tau, cfg.pump_frequency))
    if cfg.kind == MZIM:
        elements.append(SpatialFlip(cfg.flip_arm))
    elements.append(BeamSplitter(convention))
    elements.append(RelabelOutputs())
    return elements


# ---------------------------------------------------------------------------
# structured factors

_DIAG = "diag"
_ANTIDIAG = "antidiag"
_FULL = "full"


@dataclass(frozen=True)
class Factor:
    """One sector of a product branch: diagonal, anti-diagonal or full.

    ``diag`` holds S[i, i] = data[i]; ``antidiag`` holds
    S[i, N-1-i] = data[i]; ``full`` holds the complete matrix.  The
    structured forms keep correlated sectors at O(N) storage and make the
    common inner products O(N).
    """

    kind: str
    data: np.ndarray

    @classmethod
    def diagonal(cls, values: Sequence[complex]) -> "Factor":
        return cls(_DIAG, np.asarray(values, dtype=complex))

    @classmethod
    def antidiagonal(cls, values: Sequence[complex]) -> "Factor":
        return cls(_ANTIDIAG, np.asarray(values, dtype=complex))

    @classmethod
    def full(cls, matrix: np.ndarray) -> "Factor":
        return cls(_FULL, np.asarray(matrix, dtype=complex))

    @property
    def size(self) -> int:
        return self.data.shape[0]

    def flip_slot(self, slot: int) -> "Factor":
        """Reverse the position index of one photon slot."""
        if self.kind == _FULL:
            return Factor(_FULL, self.data[::-1, :] if slot == 0 else self.data[:, ::-1])
        if self.kind == _DIAG:
            # S'[i, i'] = S[N-1-i, i'] puts weight at i' = N-1-i.
            vec = self.data[::-1] if slot == 0 else self.data
            return Factor(_ANTIDIAG, vec)
        vec = self.data[::-1] if slot == 0 else self.data
        return Factor(_DIAG, vec)

    def scale_slot(self, slot: int, phases: np.ndarray) -> "Factor":
        """Multiply by a mode-diagonal phase on one photon slot."""
        if self.kind == _FULL:
            return Factor(
                _FULL,
                self.data * (phases[:, None] if slot == 0 else phases[None, :]))
        if self.kind == _DIAG:
            return Factor(_DIAG, self.data * phases)
        # antidiagonal: slot 0 sees index k, slot 1 sees index N-1-k.
        vec = phases if slot == 0 else phases[::-1]
        return Factor(_ANTIDIAG, self.data * vec)

    def transpose(self) -> "Factor":
        if self.kind == _FULL:
            return Factor(_FULL, self.data.T.copy())
        if self.kind == _DIAG:
            return self
        return Factor(_ANTIDIAG, self.data[::-1])

    def to_full(self) -> np.ndarray:
        n = self.size
        if self.kind == _FULL:
            return np.array(self.data)
        out = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        if self.kind == _DIAG:
            out[idx, idx] = self.data
        else:
            out[idx, n - 1 - idx] = self.data
        return out

    def inner(self, other: "Factor") -> complex:
        """Frobenius inner product sum(conj(self) * other)."""
        if self.kind == other.kind:
            return complex(np.vdot(self.data, other.data))
        if _FULL in (self.kind, other.kind):
            return complex(np.vdot(self.to_full(), other.to_full()))
        # diagonal against anti-diagonal: only the central index overlaps.
        c = self.size // 2
        return complex(np.conj(self.data[c]) * other.data[c])

    def inner_terms(self, other: "Factor") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms that ``inner`` sums, with each term's (slot 0, slot 1)
        index counted from the middle node.
        """
        c = self.size // 2
        n = np.arange(self.size) - c
        if self.kind == other.kind != _FULL:
            return np.conj(self.data) * other.data, n, n if self.kind == _DIAG else -n
        if _FULL in (self.kind, other.kind):
            return np.conj(self.to_full()) * other.to_full(), n[:, None], n[None, :]
        # diagonal against anti-diagonal: only the central index overlaps.
        return np.conj(self.data[c:c + 1]) * other.data[c:c + 1], n[c:c + 1], n[c:c + 1]


# ---------------------------------------------------------------------------
# branch-sum state


@dataclass(frozen=True)
class Branch:
    path1: str
    path2: str
    weight: complex
    spatial: Factor
    spectral: Factor
    delays: Tuple[int, int] = (0, 0)  # Delay phases each photon has received


@dataclass(frozen=True)
class BranchSumState:
    """Two-photon amplitude as a short sum of product branches.

    The represented ordered tensor is
    A[(p, i, k), (p', i', k')] = sum over branches with paths (p, p') of
    weight * S[i, i'] * F[k, k'].
    """

    spatial_grid: SpatialGrid
    frequency_grid: FrequencyGrid
    branches: Tuple[Branch, ...]
    relabeled: bool = False

    @property
    def paths(self) -> Tuple[str, str]:
        return _OUTPUT_PATHS if self.relabeled else _INPUT_PATHS

    def path_pair_norms(self) -> Dict[Tuple[str, str], float]:
        """Squared amplitude norm per (photon 1 path, photon 2 path); absent pairs are zero."""
        return {pair: _group_norm(g) for pair, g in _by_path_pair(self.branches).items()}


def _by_path_pair(branches: Iterable[Branch]) -> Dict[Tuple[str, str], List[Branch]]:
    """Branches grouped by (photon 1 path, photon 2 path), in order of appearance."""
    groups: Dict[Tuple[str, str], List[Branch]] = {}
    for b in branches:
        groups.setdefault((b.path1, b.path2), []).append(b)
    return groups


def build_initial_state(
    state: TwoPhotonState,
    spatial_grid: SpatialGrid,
    frequency_grid: FrequencyGrid,
) -> BranchSumState:
    """Both photons in path a, factors discretized on the given grids.

    Correlated sectors become structured factors carrying sqrt(quadrature
    weight) amplitudes; general sectors become full matrices.  The state is
    exchange-symmetrized and normalized to unit total amplitude norm.
    """
    if state.spatial.grid != spatial_grid:
        raise GridAsymmetry("state's spatial grid differs from the requested grid")
    if isinstance(state.spatial, CorrelatedPump):
        s_factor = Factor.diagonal(
            state.spatial.pump.values * math.sqrt(spatial_grid.spacing))
    elif isinstance(state.spatial, GeneralSpatial):
        s_factor = Factor.full(state.spatial.amplitude * spatial_grid.spacing)
    else:
        raise UnknownElement(f"unsupported spatial sector {type(state.spatial)!r}")

    if isinstance(state.spectral, AntiCorrelated):
        density = normalize(state.spectral.density, frequency_grid)
        d = density.sample(frequency_grid)
        w = frequency_grid.trapezoid_weights()
        f_factor = Factor.antidiagonal(np.sqrt(d * w).astype(complex))
    elif isinstance(state.spectral, GeneralSpectral):
        if state.spectral.grid != frequency_grid:
            raise GridAsymmetry("state's frequency grid differs from the requested grid")
        f_factor = Factor.full(state.spectral.amplitude * frequency_grid.spacing)
    else:
        raise UnknownElement(f"unsupported spectral sector {type(state.spectral)!r}")

    branch = Branch("a", "a", 1.0 + 0.0j, s_factor, f_factor)
    out = _symmetrized(BranchSumState(spatial_grid, frequency_grid, (branch,)))
    norm = math.sqrt(total_norm(out))
    if norm <= 0.0:
        raise ValueError("state has zero norm on these grids")
    return replace(out, branches=tuple(
        replace(b, weight=b.weight * (1.0 / norm)) for b in out.branches))


def _swapped_branches(branches: Iterable[Branch]) -> Tuple[Branch, ...]:
    return tuple(
        Branch(b.path2, b.path1, b.weight, b.spatial.transpose(), b.spectral.transpose(),
               b.delays[::-1])
        for b in branches)


def _factor_is_symmetric(factor: Factor) -> bool:
    if factor.kind == _DIAG:
        return True
    if factor.kind == _ANTIDIAG:
        return bool(np.array_equal(factor.data, factor.data[::-1]))
    return bool(np.array_equal(factor.data, factor.data.T))


def _symmetrized(state: BranchSumState) -> BranchSumState:
    # Structural check: a branch with equal path labels and
    # transpose-symmetric factors is exchange symmetric term by term.
    # (The numeric asymmetry norm is useless here -- for a symmetric state
    # it is a catastrophically cancelled zero.)
    if all(b.path1 == b.path2 and _factor_is_symmetric(b.spatial)
           and _factor_is_symmetric(b.spectral) for b in state.branches):
        return state
    halved = tuple(replace(b, weight=0.5 * b.weight) for b in state.branches)
    return replace(state, branches=halved + _swapped_branches(halved))


def _branch_inner(x: Branch, y: Branch) -> complex:
    if (x.path1, x.path2) != (y.path1, y.path2):
        return 0.0
    return (np.conj(x.weight) * y.weight
            * x.spatial.inner(y.spatial)
            * x.spectral.inner(y.spectral))


def _group_norm(branches: Sequence[Branch]) -> float:
    total = 0.0
    for i, x in enumerate(branches):
        total += _branch_inner(x, x).real
        for y in branches[i + 1:]:
            total += 2.0 * _branch_inner(x, y).real
    return total


def total_norm(state: BranchSumState) -> float:
    """Squared amplitude norm of the ordered two-photon tensor."""
    return float(sum(state.path_pair_norms().values()))


def exchange_asymmetry(state: BranchSumState) -> float:
    """Norm of (A - A_swapped); zero for a bosonic (symmetric) state."""
    swapped = _swapped_branches(state.branches)
    norm_a = total_norm(state)
    norm_b = total_norm(replace(state, branches=swapped))
    cross = 0.0
    for x in state.branches:
        for y in swapped:
            cross += _branch_inner(x, y).real
    return math.sqrt(max(0.0, norm_a + norm_b - 2.0 * cross))


def apply_element(state: BranchSumState, element: Element) -> BranchSumState:
    """Apply one optical element; returns a new state.

    Each branch goes to every pairing of its two photons' outcomes.  Only a
    photon split (a beam splitter) multiplies the branch count, by at most
    four; every other element maps branches one to one.  Branches are never
    merged: a ``build_pipeline`` sequence holds two splitters, so it ends
    with at most 16 times the initial count (1, or 2 after symmetrization).
    Each branch counts the delay phases each of its photons has received.
    """
    photon, relabeled = _photon_map(element, state.frequency_grid, state.relabeled)
    out: List[Branch] = []
    for b in state.branches:
        for o1 in photon[b.path1]:
            for o2 in photon[b.path2]:
                spatial, spectral = b.spatial, b.spectral
                for slot, o in enumerate((o1, o2)):
                    if o.flip:
                        spatial = spatial.flip_slot(slot)
                    if o.phases is not None:
                        spectral = spectral.scale_slot(slot, o.phases)
                delays = (b.delays[0] + (o1.phases is not None),
                          b.delays[1] + (o2.phases is not None))
                out.append(Branch(o1.path, o2.path, b.weight * o1.amplitude * o2.amplitude,
                                  spatial, spectral, delays))
    return replace(state, branches=tuple(out), relabeled=relabeled)


def apply_pipeline(state: BranchSumState, elements: Iterable[Element]) -> BranchSumState:
    for element in elements:
        state = apply_element(state, element)
    return state


_State = Union[BranchSumState, "DenseTensorState"]
_Rate = Union[float, np.ndarray]


def _port_rule(t: Dict[Tuple[str, str], _Rate]) -> Tuple[_Rate, _Rate, _Rate]:
    """(singles at c, singles at d, coincidence) from a path-pair norm table.

    This is the only detection rule.  It acts elementwise, so the norms may
    be floats (one delay) or arrays (a scan); absent pairs are zero.
    """
    def singles(port: str, other: str) -> _Rate:
        return (2.0 * t.get((port, port), 0.0)
                + t.get((port, other), 0.0)
                + t.get((other, port), 0.0))

    return (singles("c", "d"), singles("d", "c"),
            2.0 * (t.get(("c", "d"), 0.0) + t.get(("d", "c"), 0.0)))


def _rates(state: _State) -> Tuple[float, float, float]:
    """Rates of one delay, read from the state's path-pair norm table."""
    if not state.relabeled:
        raise IncompletePipeline("apply the full pipeline (with relabelling) first")
    return _port_rule(state.path_pair_norms())


def coincidence_rate(state: _State) -> float:
    """Probability of one photon in each output port, background-1 scaled."""
    return _rates(state)[2]


def singles_rate(state: _State, port: str) -> float:
    """Expected photon number at one output port, background-1 scaled."""
    rates = _rates(state)
    if port not in _OUTPUT_PATHS:
        raise ValueError("port must be 'c' or 'd'")
    return rates[_OUTPUT_PATHS.index(port)]


# ---------------------------------------------------------------------------
# dense cross-check representation


@dataclass(frozen=True)
class DenseTensorState:
    """Full ordered amplitude tensor over (path, position, frequency)^2."""

    spatial_grid: SpatialGrid
    frequency_grid: FrequencyGrid
    tensor: np.ndarray  # shape (2, N, M, 2, N, M)
    relabeled: bool = False

    def norm(self) -> float:
        return float(np.sum(np.abs(self.tensor) ** 2))

    def exchange_asymmetry(self) -> float:
        swapped = self.tensor.transpose(3, 4, 5, 0, 1, 2)
        return float(np.sqrt(np.sum(np.abs(self.tensor - swapped) ** 2)))

    def path_pair_norms(self) -> Dict[Tuple[str, str], float]:
        """Squared amplitude norm per (photon 1 path, photon 2 path)."""
        paths = _OUTPUT_PATHS if self.relabeled else _INPUT_PATHS
        return {(p, q): float(np.sum(np.abs(self.tensor[i, :, :, j]) ** 2))
                for i, p in enumerate(paths) for j, q in enumerate(paths)}


def to_dense(state: BranchSumState) -> DenseTensorState:
    """Expand the branch sum into the dense tensor, if it fits DEFAULT_DENSE_BUDGET."""
    n = state.spatial_grid.point_count
    m = state.frequency_grid.point_count
    amplitudes = (2 * n * m) ** 2
    required = amplitudes * 16  # complex128
    if required > DEFAULT_DENSE_BUDGET:
        raise BudgetExceeded(
            f"dense tensor needs {required} bytes > budget {DEFAULT_DENSE_BUDGET}")
    tensor = np.zeros((2, n, m, 2, n, m), dtype=complex)
    paths = state.paths
    for b in state.branches:
        p1 = paths.index(b.path1)
        p2 = paths.index(b.path2)
        tensor[p1, :, :, p2, :, :] += b.weight * np.einsum(
            "ij,kl->ikjl", b.spatial.to_full(), b.spectral.to_full())
    return DenseTensorState(state.spatial_grid, state.frequency_grid, tensor,
                            relabeled=state.relabeled)


def dense_apply_element(state: DenseTensorState, element: Element) -> DenseTensorState:
    """Apply one element to the first photon slot, then (by swapping) the second."""
    photon, relabeled = _photon_map(element, state.frequency_grid, state.relabeled)
    swap = (3, 4, 5, 0, 1, 2)
    once = _dense_first_photon(photon, state.tensor).transpose(swap)
    tensor = _dense_first_photon(photon, once).transpose(swap)
    return replace(state, tensor=tensor, relabeled=relabeled)


def _dense_first_photon(photon: _PhotonMap, tensor: np.ndarray) -> np.ndarray:
    out = np.zeros_like(tensor)
    for col, path in enumerate(_INPUT_PATHS):
        for o in photon[path]:
            amplitude = tensor[col, ::-1] if o.flip else tensor[col]
            if o.phases is not None:
                amplitude = amplitude * o.phases[None, :, None, None, None]
            out[_PATH_INDEX[o.path]] += o.amplitude * amplitude
    return out


def dense_apply_pipeline(state: DenseTensorState, elements: Iterable[Element]) -> DenseTensorState:
    for element in elements:
        state = dense_apply_element(state, element)
    return state


dense_coincidence_rate = coincidence_rate
dense_singles_rate = singles_rate


# ---------------------------------------------------------------------------
# mixture-averaged singles (independent route for incoherent light)


def _one_photon_singles(
    modes: np.ndarray,
    spectral_amplitude: np.ndarray,
    frequency_grid: FrequencyGrid,
    elements: Iterable[Element],
    port: str,
) -> np.ndarray:
    """Port probabilities for a batch of single-photon spatial modes.

    ``modes`` has one row per coherent mode (already carrying sqrt(dx)
    weights); ``spectral_amplitude`` carries sqrt of the frequency weights.
    Returns P(port) per mode; the frequency-diagonal mixture equals the
    pure-superposition result because no element mixes frequencies.
    """
    branches: List[Tuple[str, np.ndarray, np.ndarray, complex]] = [
        ("a", modes, spectral_amplitude.astype(complex), 1.0 + 0.0j)]
    relabeled = False
    for element in elements:
        photon, relabeled = _photon_map(element, frequency_grid, relabeled)
        branches = [
            (o.path, s[:, ::-1] if o.flip else s,
             f if o.phases is None else f * o.phases, w * o.amplitude)
            for path, s, f, w in branches for o in photon[path]]
    if not relabeled:
        raise IncompletePipeline("apply the full pipeline (with relabelling) first")
    in_port = [b for b in branches if b[0] == port]
    n_modes = modes.shape[0]
    prob = np.zeros(n_modes)
    for i, (_, s1, f1, w1) in enumerate(in_port):
        prob += np.abs(w1) ** 2 * np.real(
            np.einsum("mi,mi->m", s1.conj(), s1)) * float(np.vdot(f1, f1).real)
        for _, s2, f2, w2 in in_port[i + 1:]:
            cross = (np.conj(w1) * w2
                     * np.einsum("mi,mi->m", s1.conj(), s2)
                     * complex(np.vdot(f1, f2)))
            prob += 2.0 * cross.real
    return prob


def simulate_mixture(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau: float,
    spatial_grid: Optional[SpatialGrid] = None,
    frequency_grid: Optional[FrequencyGrid] = None,
    convention: str = SYMMETRIC,
) -> Tuple[float, float]:
    """(singles at port c, coincidence) with mixture-averaged singles.

    The coincidence rate comes from the full pure two-photon state; the
    singles rate is the weight-averaged singles of the coherent modes of
    the reduced one-photon state.  Both routes must agree with the direct
    pure-state evaluation -- this operation exists to validate the fringe
    weighting of the unbalanced interferometer by brute force.
    """
    sgrid, fgrid = _resolve_grids(state, spatial_grid, frequency_grid)
    initial = build_initial_state(state, sgrid, fgrid)
    elements = build_pipeline(cfg, tau, convention)
    final = apply_pipeline(initial, elements)
    coincidence = coincidence_rate(final)

    one = reduce_to_one_photon(state, frequency_grid=fgrid)
    modes = eigendecompose(one.spatial)
    weights = np.array([w for w, _ in modes])
    mode_rows = np.array(
        [m.values for _, m in modes]) * math.sqrt(sgrid.spacing)
    if not isinstance(one.spectral, DiagonalDensity):
        raise ValueError("mixture simulation requires a frequency-diagonal spectral sector")
    spectral_amplitude = np.sqrt(one.spectral.weights)
    per_mode = _one_photon_singles(mode_rows, spectral_amplitude, fgrid, elements, "c")
    singles = 2.0 * float(weights @ per_mode)
    return singles, coincidence


def _resolve_grids(
    state: TwoPhotonState,
    spatial_grid: Optional[SpatialGrid],
    frequency_grid: Optional[FrequencyGrid],
) -> Tuple[SpatialGrid, FrequencyGrid]:
    return (spatial_grid or state.spatial.grid,
            _working_frequency_grid(state, frequency_grid))


# ---------------------------------------------------------------------------
# scan driver


def _delay_table(state: BranchSumState) -> Dict[Tuple[Tuple[str, str], int], np.ndarray]:
    """Delay dependence of the path-pair norms of a final state built at tau = 0.

    A delay multiplies a photon by exp(-i (w_p/2 + W_k) tau), W_k = n h
    (see ``_photon_map``).  For two branches x, y of one path pair, with
    d = y.delays - x.delays and m = d0 + d1, conj(w_x) w_y <S_x, S_y>
    <F_x(tau), F_y(tau)> is exp(-i m w_p tau / 2) sum_n g_n exp(i n h tau),
    where a spectral term with slot indices (n0, n1) lands at
    n = -(d0 n0 + d1 n1).  Row (path pair, m) holds g summed over the pair's
    branches, indexed from n = -2c to 2c (c = M // 2); only the pairs and
    m that occur get a row.  Each unordered branch pair enters once, at
    double weight, so only the real part of the delay sum is the norm.
    """
    c = state.frequency_grid.point_count // 2
    table: dict = {}
    for pair, group in _by_path_pair(state.branches).items():
        for i, x in enumerate(group):
            for y in group[i:]:
                d0, d1 = y.delays[0] - x.delays[0], y.delays[1] - x.delays[1]
                terms, n0, n1 = x.spectral.inner_terms(y.spectral)
                coef = ((1.0 if y is x else 2.0) * np.conj(x.weight) * y.weight
                        * x.spatial.inner(y.spatial))
                row = table.setdefault((pair, d0 + d1), np.zeros(4 * c + 1, dtype=complex))
                np.add.at(row, 2 * c - d0 * n0 - d1 * n1, coef * terms)
    return table


def oracle_scan(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau_start: float,
    tau_stop: float,
    tau_step: float,
    spatial_grid: Optional[SpatialGrid] = None,
    frequency_grid: Optional[FrequencyGrid] = None,
    convention: str = SYMMETRIC,
) -> Interferogram:
    """Delay scan evaluated entirely by the discrete-mode simulator.

    Makes the same pump-frequency and step checks as the closed ``scan``.
    The branches do not depend on the delay, so the pipeline runs once, at
    tau = 0, and every delay's path-pair norms come from one chirp-z call
    on the rows of ``_delay_table``.
    """
    tau = _scan_axis(state, cfg, tau_start, tau_stop, tau_step)
    sgrid, fgrid = _resolve_grids(state, spatial_grid, frequency_grid)
    initial = build_initial_state(state, sgrid, fgrid)
    table = _delay_table(apply_pipeline(initial, build_pipeline(cfg, 0.0, convention)))
    sums = chirp_z(np.array(list(table.values())), fgrid.spacing, tau[0], tau_step, tau.size)
    pumps = {m: np.exp(-0.5j * m * cfg.pump_frequency * tau) for _, m in table}
    norms: dict = {}
    for (pair, m), row in zip(table, sums):
        norms[pair] = norms.get(pair, 0.0) + (pumps[m] * row).real
    s1, s2, cc = _port_rule(norms)
    return Interferogram(
        tau=tau,
        singles_port1=s1,
        singles_port2=s2,
        coincidences=cc,
        config=cfg.describe(),
        state=state.describe(),
        engine="oracle",
    )
