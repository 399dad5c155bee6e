"""Brute-force discrete-mode two-photon simulator.

Independent validation engine for the closed-form interferograms.  The
two-photon state lives on (path x position x frequency) modes, and rates
are mode-summed detection probabilities.  Nothing here knows the closed
forms: agreement between the two engines is the package's core self-check,
and the simulator also covers the states with no closed form: a general
spectral sector, or both sectors exchange asymmetric.

The elements are the optics of the two instruments: the 50:50 beam
splitter, the delay and, for the mirror-unbalanced one, the transverse
flip.  Each is defined once, as a single-photon map: every input path goes
to one or more outcomes (output path, amplitude, position flip or not,
spectral phases or none).  ``apply_pipeline`` builds each element's map in
turn and hands it to the state, which defines how a photon map acts on each
of its photon slots and holds no element-specific logic of its own.

The state is a branch sum, a short list of product terms (path pair,
spatial factor, spectral factor), on the grids the state's sectors carry.
Each sector kind's factor is its ``_FACTORS`` entry, which stays diagonal
/ anti-diagonal for correlated inputs, so memory is O(N + M) per branch
and default grids run at interactive speed.  Branches are never merged:
each beam splitter multiplies their count by at most four, so the
two-splitter pipeline ends with at most 16 per initial branch.  The state
gives a table of path-pair norms, from one walk over the unordered pairs
of a path pair's branches, and everything else reads that table: the port
rule (the rates) and ``total_norm``.

A delay scan runs the branch sum once, at zero delay: the branches do not
depend on the delay, and each records how many delays each of its photons
passed.  A zero delay carries no phases (each would be exactly 1), so every
final branch keeps its initial spectral factor object, and the 16 branches
of a symmetric state share one.  Every path-pair norm is then a sum of terms
g exp(-i m w_p tau / 2) exp(i n h tau) with small integers m and n, and one
chirp-z call (``spectral.chirp_z``) evaluates all of them on the whole delay
axis, once per distinct row; its rows come from the same branch-pair walk as
the norms, and the same port rule reads the rates out, elementwise.  A row
that is another's negation, as the port sum rule s1 + s2 = 2 makes some, is
read as that row with sign -1, neither built nor transformed.  So a rate
has two routes: the scan (the production path) and the per-delay branch sum
(its reference).

Conventions: the 50:50 beam splitter maps a -> (a + i b)/sqrt(2),
b -> (i a + b)/sqrt(2).  A delay tau in one arm multiplies each photon
amplitude in that arm by exp(-i (w_p/2 + W_k) tau), w_p the state's pump
frequency, which the branch sum carries; a spatial flip reverses the
position index.  After the last splitter path a is output port 1 and
path b port 2, the ports the closed engine and ``Interferogram`` name.
Rates are normalized so the incoherent background equals one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BiphotonError
from .interferometer import Interferogram, InterferometerConfig, MZIM, _scan_axis
from .spectral import FrequencyGrid, chirp_z, normalize
from .states import AntiCorrelated, CorrelatedPump, GeneralSpatial, GeneralSpectral, TwoPhotonState

__all__ = [
    "BeamSplitter",
    "Delay",
    "SpatialFlip",
    "build_pipeline",
    "Factor",
    "Branch",
    "BranchSumState",
    "build_initial_state",
    "apply_pipeline",
    "coincidence_rate",
    "singles_rate",
    "total_norm",
    "oracle_scan",
]

_PATHS = ("a", "b")  # after the last splitter, a is port 1 and b port 2
PORT_SUM_TOL = 1e-9  # what oracle_scan allows of |s1 + s2 - 2|


# ---------------------------------------------------------------------------
# pipeline elements


@dataclass(frozen=True)
class BeamSplitter:
    def matrix(self) -> np.ndarray:
        return np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)


@dataclass(frozen=True)
class Delay:
    arm: str
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau!r}")


@dataclass(frozen=True)
class SpatialFlip:
    arm: str


Element = Union[BeamSplitter, Delay, SpatialFlip]


class _Outcome(NamedTuple):
    """Where an element sends one photon, and what it does to it on the way."""

    path: str
    amplitude: complex
    flip: bool  # reverse the position index
    phases: Optional[np.ndarray]  # per-frequency phase factors, or None if all are 1
    delay: bool  # a Delay element's outcome, phases or none


_PhotonMap = Dict[str, List[_Outcome]]


def _photon_map(element: Element, state: BranchSumState) -> _PhotonMap:
    """One element's action on one photon, at ``state``'s grid and pump frequency.

    The map sends each input path to its outcomes.  This is the only
    definition of what an element does; every representation applies it to
    each photon slot.
    """
    if isinstance(element, BeamSplitter):
        u = element.matrix()
        return {p: [_Outcome(q, u[row, col], False, None, False)
                    for row, q in enumerate(_PATHS)]
                for col, p in enumerate(_PATHS)}
    if isinstance(element, Delay):
        # at tau = 0 every phase is exactly 1: the outcome carries none
        phases = None if element.tau == 0.0 else np.exp(
            -1j * (state.pump_frequency / 2.0 + state.frequency_grid.omegas()) * element.tau)
        in_arm = _Outcome(element.arm, 1.0, False, phases, True)
    elif isinstance(element, SpatialFlip):
        in_arm = _Outcome(element.arm, 1.0, True, None, False)
    else:
        raise BiphotonError(f"unknown element {element!r}")
    if element.arm not in _PATHS:
        raise ValueError(f"arms are labelled 'a' and 'b', got {element.arm!r}")
    return {p: [in_arm if p == element.arm else _Outcome(p, 1.0, False, None, False)]
            for p in _PATHS}


def build_pipeline(cfg: InterferometerConfig, tau: float) -> List[Element]:
    """Element sequence for the configured interferometer at delay tau.

    The delay and the MZIM's flip sit in arm b: no rate depends on the arms.
    Path a leaves the last splitter at port 1, path b at port 2."""
    elements: List[Element] = [BeamSplitter(), Delay("b", tau)]
    if cfg.kind == MZIM:
        elements.append(SpatialFlip("b"))
    return elements + [BeamSplitter()]


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
            return Factor(_FULL, np.flip(self.data, axis=slot))
        # S'[i, i'] = S[N-1-i, i']: a flip turns diagonal into anti-diagonal
        # and back, and entry k moves to N-1-k when slot 0 indexes it.
        return Factor(_ANTIDIAG if self.kind == _DIAG else _DIAG,
                      self.data[::-1] if slot == 0 else self.data)

    def scale_slot(self, slot: int, phases: np.ndarray) -> "Factor":
        """Multiply by a mode-diagonal phase on one photon slot."""
        if self.kind == _FULL:
            return Factor(_FULL, self.data * np.expand_dims(phases, 1 - slot))
        # entry k sits at slot 0 index k; slot 1 sees k, or N-1-k if antidiagonal.
        reverse = slot == 1 and self.kind == _ANTIDIAG
        return Factor(self.kind, self.data * (phases[::-1] if reverse else phases))

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

    def _aligned(self, other: "Factor") -> Tuple[np.ndarray, np.ndarray, int]:
        """The entries of self and other that meet in the inner product, as
        two arrays of one shape, and the sign of slot 1's index against slot
        0's along a structured (1-d) pair: -1 for two anti-diagonals.
        """
        if self.kind == other.kind:
            return self.data, other.data, -1 if self.kind == _ANTIDIAG else 1
        if _FULL in (self.kind, other.kind):
            return self.to_full(), other.to_full(), 1
        # diagonal against anti-diagonal: only the central index overlaps.
        c = self.size // 2
        return self.data[c:c + 1], other.data[c:c + 1], 1

    def inner(self, other: "Factor") -> complex:
        """Frobenius inner product sum(conj(self) * other).

        A full (2-d) product is summed a row at a time and the row sums
        pairwise: one running sum over all N^2 terms drifts with N.
        """
        mine, theirs, _ = self._aligned(other)
        if mine.ndim == 2:
            return complex(np.sum([np.vdot(a, b) for a, b in zip(mine, theirs)]))
        return complex(np.vdot(mine, theirs))

    def inner_terms(self, other: "Factor") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The terms that ``inner`` sums, with each term's (slot 0, slot 1)
        index counted from the middle node.
        """
        mine, theirs, sign = self._aligned(other)
        n = np.arange(len(mine)) - len(mine) // 2
        n0, n1 = (n[:, None], n[None, :]) if mine.ndim == 2 else (n, sign * n)
        return np.conj(mine) * theirs, n0, n1


# ---------------------------------------------------------------------------
# branch-sum state


@dataclass(frozen=True)
class Branch:
    path1: str
    path2: str
    weight: complex
    spatial: Factor
    spectral: Factor
    delays: Tuple[int, int] = (0, 0)  # Delay elements each photon has passed, zero ones too


@dataclass(frozen=True)
class BranchSumState:
    """Two-photon amplitude as a short sum of product branches.

    The represented ordered tensor is
    A[(p, i, k), (p', i', k')] = sum over branches with paths (p, p') of
    weight * S[i, i'] * F[k, k'].
    """

    frequency_grid: FrequencyGrid
    pump_frequency: float  # of the source; a delay's phases read it, as they read the grid
    branches: Tuple[Branch, ...]

    def __post_init__(self):
        if not 0.0 < self.pump_frequency < math.inf:
            raise ValueError(
                f"pump_frequency must be finite and positive, got {self.pump_frequency!r}")

    def path_pair_norms(self) -> Dict[Tuple[str, str], float]:
        """Squared amplitude norm per (photon 1 path, photon 2 path); absent pairs are zero."""
        spatial: dict = {}
        return {pair: _group_norm(g, spatial) for pair, g in _by_path_pair(self.branches).items()}

    def _mapped(self, photon: _PhotonMap) -> "BranchSumState":
        """Each branch goes to every pairing of its two photons' outcomes.

        Only a photon split (a beam splitter) multiplies the branch count,
        by at most four; every other element maps branches one to one.
        Branches are never merged: a ``build_pipeline`` sequence holds two
        splitters, so it ends with at most 16 times the initial count (1, or
        2 after symmetrization).  Each branch counts the delays each of its
        photons has passed, by the outcomes' ``delay`` flag: a zero delay
        counts though it carries no phases, so a pipeline built at tau = 0
        passes every spectral factor on unchanged.
        """
        out: List[Branch] = []
        for b in self.branches:
            for o1 in photon[b.path1]:
                for o2 in photon[b.path2]:
                    spatial, spectral = b.spatial, b.spectral
                    for slot, o in enumerate((o1, o2)):
                        if o.flip:
                            spatial = spatial.flip_slot(slot)
                        if o.phases is not None:
                            spectral = spectral.scale_slot(slot, o.phases)
                    delays = (b.delays[0] + o1.delay, b.delays[1] + o2.delay)
                    out.append(Branch(o1.path, o2.path, b.weight * o1.amplitude * o2.amplitude,
                                      spatial, spectral, delays))
        return replace(self, branches=tuple(out))


def _by_path_pair(branches: Iterable[Branch]) -> Dict[Tuple[str, str], List[Branch]]:
    """Branches grouped by (photon 1 path, photon 2 path), in order of appearance."""
    groups: Dict[Tuple[str, str], List[Branch]] = {}
    for b in branches:
        groups.setdefault((b.path1, b.path2), []).append(b)
    return groups


# The simulator's sector table, keyed by exact type: each sector on its own
# grid, correlated sectors as structured factors carrying sqrt(quadrature
# weight) amplitudes, general sectors as full matrices.
_FACTORS = {
    CorrelatedPump: lambda s: Factor.diagonal(s.pump.values * math.sqrt(s.grid.spacing)),
    GeneralSpatial: lambda s: Factor.full(s.amplitude * s.grid.spacing),
    AntiCorrelated: lambda s: Factor.antidiagonal(np.sqrt(
        normalize(s.density, s.grid).sample(s.grid) * s.grid.trapezoid_weights()
    ).astype(complex)),
    GeneralSpectral: lambda s: Factor.full(s.amplitude * s.grid.spacing),
}


def build_initial_state(state: TwoPhotonState) -> BranchSumState:
    """Both photons in path a, on the state's grids and at its pump frequency.

    Each sector becomes its ``_FACTORS`` entry; the state is
    exchange-symmetrized and normalized to unit total amplitude norm."""
    branch = Branch("a", "a", 1.0 + 0.0j, *(_FACTORS[type(sector)](sector)
                                            for sector in (state.spatial, state.spectral)))
    out = _symmetrized(BranchSumState(state.spectral.grid, state.pump_frequency, (branch,)))
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
    return bool(np.array_equal(factor.data, factor.transpose().data))


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


def _branch_pairs(branches: Sequence[Branch],
                  spatial: dict) -> Iterable[Tuple[Branch, Branch, complex]]:
    """Each unordered pair (x, y) of one path pair's branches, x first, with
    coef = (1 if y is x else 2) conj(w_x) w_y <S_x, S_y>.

    A pair's share of the norm is Re(coef <F_x, F_y>); the doubling counts
    the (y, x) term, the complex conjugate of this one.  ``spatial`` holds
    <S_x, S_y> keyed by the pair of spatial factor objects, so the groups
    that share it compute each product once: 1 for the 40 pairs of an MZI
    scan's final state, whose branches share one spatial factor, and 10 for
    an MZIM's, whose flips make four.
    """
    for i, x in enumerate(branches):
        for y in branches[i:]:
            factors = (id(x.spatial), id(y.spatial))
            if factors not in spatial:
                spatial[factors] = x.spatial.inner(y.spatial)
            yield x, y, ((1.0 if y is x else 2.0) * np.conj(x.weight) * y.weight
                         * spatial[factors])


def _group_norm(branches: Sequence[Branch], spatial: dict) -> float:
    total = 0.0
    for x, y, coef in _branch_pairs(branches, spatial):
        total += (coef * x.spectral.inner(y.spectral)).real
    return total


def total_norm(state: BranchSumState) -> float:
    """Squared amplitude norm of the ordered two-photon tensor."""
    return float(sum(state.path_pair_norms().values()))


def apply_pipeline(state: BranchSumState, elements: Iterable[Element]) -> BranchSumState:
    """Apply optical elements in order, each by its photon map; returns a new state."""
    for element in elements:
        state = state._mapped(_photon_map(element, state))
    return state


_Rate = Union[float, np.ndarray]


def _port_rule(t: Dict[Tuple[str, str], _Rate]) -> Tuple[_Rate, _Rate, _Rate]:
    """(singles at port 1, singles at port 2, coincidence) from a path-pair
    norm table read after the last splitter: path a is port 1, path b port 2.

    This is the only detection rule.  It acts elementwise, so the norms may
    be floats (one delay) or arrays (a scan); absent pairs are zero.
    """
    def singles(port: str, other: str) -> _Rate:
        return (2.0 * t.get((port, port), 0.0)
                + t.get((port, other), 0.0)
                + t.get((other, port), 0.0))

    return (singles("a", "b"), singles("b", "a"),
            2.0 * (t.get(("a", "b"), 0.0) + t.get(("b", "a"), 0.0)))


def coincidence_rate(state: BranchSumState) -> float:
    """Probability of one photon in each output port, background-1 scaled."""
    return _port_rule(state.path_pair_norms())[2]


def singles_rate(state: BranchSumState, port: int) -> float:
    """Expected photon number at output port 1 or 2, background-1 scaled."""
    if port not in (1, 2):
        raise ValueError(f"port must be 1 or 2, got {port!r}")
    return _port_rule(state.path_pair_norms())[port - 1]


# ---------------------------------------------------------------------------
# scan driver


def _delay_table(
        state: BranchSumState) -> Dict[Tuple[Tuple[str, str], int], Tuple[int, np.ndarray]]:
    """Delay dependence of the path-pair norms of a final state built at tau = 0.

    A delay multiplies a photon by exp(-i (w_p/2 + W_k) tau), W_k = n h
    (see ``_photon_map``).  For two branches x, y of one path pair, with
    d = y.delays - x.delays and m = d0 + d1, conj(w_x) w_y <S_x, S_y>
    <F_x(tau), F_y(tau)> is exp(-i m w_p tau / 2) sum_n g_n exp(i n h tau),
    where a spectral term with slot indices (n0, n1) lands at
    n = -(d0 n0 + d1 n1).  Row (path pair, m) holds g summed over the pair's
    branches, indexed from n = -2c to 2c (c = M // 2); only the pairs and
    m that occur get a row.  The pairs come from ``_branch_pairs``, the walk
    ``_group_norm`` reads too: each unordered pair enters once, at double
    weight, so only the real part of the delay sum is the norm.

    Each key maps to (sign, row): its g is sign * row.  A key's recipe is
    its pairs in walk order, each as (coef, (spectral factor pair, d0,
    d1)), and its negated recipe the same with -coef.  A row is built only
    for a recipe not seen before, and its negated recipe is then read as
    that row with sign -1; a later key of either recipe builds nothing.
    Python's == and hash tell every two distinct coefficients apart but
    +0.0 and -0.0, so equal recipes are the same adds in the same order,
    up to the sign of a zero, which cannot change a row: every row entry
    is a running sum that starts at +0.0, so under round-to-nearest it is
    never -0.0, and adding +0.0 or -0.0 to it gives the same bits.  A
    negated recipe's adds are those of its twin with every operand
    negated, and round-to-nearest is symmetric in sign, so its row is the
    twin's negated, up to the sign of a zero: -row + 0.0 has the bits of
    building the key's row pair by pair.  An all-zero recipe is its own
    negation and keeps sign +1.

    Recipes repeat because an exchange-symmetrised state's (a, b) and
    (b, a) keys, and (a, a) and (b, b) at m = 0 and 2, walk the same pairs.
    They come negated by the port sum rule s1 + s2 = 2: (b, b) at m = 1
    walks (a, a)'s pairs at m = 1 with every coefficient negated, and
    (a, b) and (b, a) at m = 2 walk (a, a)'s at m = 2 so; (b, a) at m = 1
    walks (a, b)'s negated too, a row zero in every entry.  On the bundled
    configs the 12 keys build 5 rows.  An hg1 pump's m = 1 coefficients are
    all zero, so its keys build 4, the m = 1 row zero.  Nothing here relies
    on that: twins are found from the recipes alone.

    The state is built at tau = 0, where a delay carries no phases, so
    every branch keeps its initial spectral factor: the 16 branches of a
    symmetric state share one factor object, and ``inner_terms`` runs once
    per pair of factor objects, 1 product for the 40 pairs (3 for an
    exchange-asymmetric spectrum's two factors).  Each step (factor pair,
    d0, d1) places its terms once: a run of distinct, equally spaced nodes
    (the 1-d steps with d0 != d1 for anti-diagonal factors) as a strided
    slice, added in place; terms that all land on one node, and a full
    factor's terms, as a node array for ``np.add.at``, which sums repeated
    nodes in order.
    """
    c = state.frequency_grid.point_count // 2
    spatial: dict = {}
    products: dict = {}
    places: dict = {}
    walks: dict = {}
    for pair, group in _by_path_pair(state.branches).items():
        for x, y, coef in _branch_pairs(group, spatial):
            factors = (id(x.spectral), id(y.spectral))
            if factors not in products:
                products[factors] = x.spectral.inner_terms(y.spectral)
            d0, d1 = y.delays[0] - x.delays[0], y.delays[1] - x.delays[1]
            step = (factors, d0, d1)
            if step not in places:
                terms, n0, n1 = products[factors]
                places[step] = (terms, _placement(2 * c - d0 * n0 - d1 * n1))
            walks.setdefault((pair, d0 + d1), []).append((coef, step))
    rows: dict = {}
    table = {}
    for key, walk in walks.items():
        recipe = tuple(walk)
        if recipe not in rows:
            row = np.zeros(4 * c + 1, dtype=complex)
            for coef, step in walk:
                terms, nodes = places[step]
                if isinstance(nodes, slice):
                    row[nodes] += coef * terms
                else:
                    np.add.at(row, nodes, coef * terms)
            rows[tuple((-coef, step) for coef, step in walk)] = (-1, row)
            rows[recipe] = (1, row)  # an all-zero recipe is its own negation
        table[key] = rows[recipe]
    return table


def _placement(nodes: np.ndarray) -> Union[slice, np.ndarray]:
    """Where a step's terms land in a row: a slice if ``nodes`` is a run of
    distinct, equally spaced nodes, else the node array itself."""
    if nodes.ndim != 1 or nodes.size < 2 or nodes[0] == nodes[1]:
        return nodes
    stride = int(nodes[1] - nodes[0])
    stop = int(nodes[-1]) + stride
    return slice(int(nodes[0]), stop if stop >= 0 else None, stride)


def _delay_norms(final: BranchSumState, tau: np.ndarray,
                 tau_step: float) -> Dict[Tuple[str, str], np.ndarray]:
    """Path-pair norms of ``final``, built at tau = 0, on the uniform axis ``tau``.

    One chirp-z call transforms the rows of ``_delay_table``, which builds
    each row and each spectral product once, lets (path pair, m) keys of
    equal recipe share a row and reads a negated recipe as its twin's row
    with sign -1.  Each built row that is nonzero somewhere is transformed
    once: 4 of the 12 keys' rows on the bundled configs, 3 for an hg1 pump.
    A key adds its row's term to its pair's norm, or subtracts it if its
    sign is -1.  Round-to-nearest is symmetric in sign, so chirp_z(-u) is
    -chirp_z(u) up to the sign of a zero, and a - x has the bits of
    a + (-x).  A key whose row is zero adds nothing: its transform would be
    +-0.  A pair's running sum starts at 0.0 + ..., so under round-to-nearest
    it is never -0.0, and adding +-0 leaves its bits as they are.  So the
    norms are those of transforming every key's row, built pair by pair, bit
    for bit, whatever symmetry the state has or lacks.  The pump phase
    exp(-i m w_p tau / 2) is computed once per m in use.
    """
    table = _delay_table(final)
    live = {id(row): row for _, row in table.values() if row.any()}
    sums = dict(zip(live, chirp_z(np.array(list(live.values())), final.frequency_grid.spacing,
                                  tau[0], tau_step, tau.size)))
    used = {m for (_, m), (_, row) in table.items() if id(row) in sums}
    pumps = {m: np.exp(-0.5j * m * final.pump_frequency * tau) for m in used}
    norms = {pair: np.zeros(tau.size) for pair, _ in table}
    for (pair, m), (sign, row) in table.items():
        if id(row) in sums:
            term = (pumps[m] * sums[id(row)]).real
            norms[pair] = norms[pair] - term if sign < 0 else norms[pair] + term
    return norms


def oracle_scan(
    state: TwoPhotonState,
    cfg: InterferometerConfig,
    tau_start: float,
    tau_stop: float,
    tau_step: float,
) -> Interferogram:
    """Delay scan evaluated entirely by the discrete-mode simulator.

    Runs on the state's own spatial and frequency grids and pump frequency,
    and makes the same step and reach checks as the closed ``scan``.  The
    branches do not depend on the delay, so the pipeline runs once, at
    tau = 0, and ``_delay_norms`` reads every delay's path-pair norms off
    the final state.  Raises BiphotonError if the rates break the port sum
    rule s1 + s2 = 2 by more than PORT_SUM_TOL at any delay.
    """
    tau = _scan_axis(state, tau_start, tau_stop, tau_step)
    final = apply_pipeline(build_initial_state(state), build_pipeline(cfg, 0.0))
    s1, s2, cc = _port_rule(_delay_norms(final, tau, tau_step))
    # Interferogram refuses negative or non-finite rates first
    gram = Interferogram(tau=tau, singles_port1=s1, singles_port2=s2, coincidences=cc,
                         engine="oracle")
    worst = float(np.max(np.abs(s1 + s2 - 2.0)))
    if worst > PORT_SUM_TOL:
        raise BiphotonError(
            f"port intensities violate the lossless-model sum rule by {worst:.3e}")
    return gram
