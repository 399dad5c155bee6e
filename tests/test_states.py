import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton import modesim, states, units
from biphoton.errors import UnderSampled
from biphoton.interferometer import check_step

from conftest import COINCIDENCE_PERIOD, DELTA_OMEGA, OMEGA_P, SINGLES_PERIOD, on_frequency_grid


@pytest.fixture
def grid():
    return bp.default_spatial_grid(point_count=65)


@pytest.fixture
def gauss(grid):
    return bp.gaussian_amplitude(grid, waist=1e-3)


@pytest.fixture
def hg1(grid):
    return bp.hermite_gauss1_amplitude(grid, waist=1e-3)


class TestReduction:
    def test_correlated_pump_reduces_to_incoherent(self, grid, gauss, default_state):
        state = bp.TwoPhotonState(bp.CorrelatedPump(gauss),
                                  default_state.spectral, OMEGA_P)
        rho = bp.reduced_spatial_operator(state)
        expected = np.abs(gauss.values) ** 2 * grid.spacing
        assert np.allclose(np.diag(rho), expected, atol=1e-15)
        off = rho - np.diag(np.diag(rho))
        assert float(np.max(np.abs(off))) == 0.0

    def test_product_amplitude_reduces_to_pure_state(self, grid, gauss, hg1, default_state):
        def reduce(phi1, phi2):
            state = bp.TwoPhotonState(
                bp.GeneralSpatial.product(phi1, phi2), default_state.spectral, OMEGA_P)
            return bp.reduced_spatial_operator(state)

        def projector(phi):
            return np.outer(phi.values, phi.values.conj()) * grid.spacing

        # A symmetric product reduces to the pure state of its mode.
        rho = reduce(gauss, gauss)
        assert float(np.max(np.abs(rho - projector(gauss)))) < 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
        assert float(np.max(np.abs(eigs[:-1]))) < 1e-9

        # Photons sharing a port carry the symmetrised amplitude
        # (G H + H G) / sqrt(2): the product of two orthogonal modes reduces
        # to their equal mixture, whichever slot each sits in.
        for phi1, phi2 in ((gauss, hg1), (hg1, gauss)):
            rho = reduce(phi1, phi2)
            expected = 0.5 * (projector(gauss) + projector(hg1))
            assert float(np.max(np.abs(rho - expected))) < 1e-12
            eigs = np.linalg.eigvalsh(rho)
            assert eigs[-2:] == pytest.approx([0.5, 0.5], abs=1e-9)
            assert float(np.max(np.abs(eigs[:-2]))) < 1e-9

    def test_symmetrized_entangled_amplitude(self, grid, gauss, hg1, default_state):
        amp = (np.outer(gauss.values, hg1.values)
               + np.outer(hg1.values, gauss.values)) / math.sqrt(2.0)
        spatial = bp.GeneralSpatial.from_samples(grid, amp)
        state = bp.TwoPhotonState(spatial, default_state.spectral, OMEGA_P)
        rho = bp.reduced_spatial_operator(state)

        # explicit partial-trace oracle: rho(x, x') = sum_u A(x, u) A*(x', u) dx
        n = grid.point_count
        a = np.asarray(spatial.amplitude)
        oracle = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                oracle[i, j] = np.sum(a[i, :] * np.conj(a[j, :]))
        oracle *= grid.spacing**2
        assert float(np.max(np.abs(rho - oracle))) < 1e-12

        eigs = np.linalg.eigvalsh(rho)
        top_two = sorted(eigs)[-2:]
        assert top_two == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_random_general_amplitude_reduces_to_valid_operator(self, grid, default_state):
        rng = np.random.default_rng(11)
        n = grid.point_count
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        state = bp.TwoPhotonState(
            bp.GeneralSpatial.from_samples(grid, raw), default_state.spectral, OMEGA_P)
        rho = bp.reduced_spatial_operator(state)
        assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-9)
        assert float(np.min(np.linalg.eigvalsh(rho))) > -1e-10
        assert np.array_equal(rho, rho.conj().T) and not rho.flags.writeable

    def test_anticorrelated_reduces_to_diagonal_density(self, default_state, fgrid):
        weights = bp.exchange_overlaps(default_state).weights
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)
        density = bp.normalize(default_state.spectral.density, fgrid).sample(fgrid)
        interior = slice(1, -1)
        assert np.allclose(
            weights[interior], density[interior] * fgrid.spacing, rtol=1e-12)

    def test_weights_lie_on_the_sectors_grid(self, default_state):
        density = default_state.spectral.density
        grid = bp.default_frequency_grid(density, point_count=65)
        weights = bp.exchange_overlaps(on_frequency_grid(default_state, grid)).weights
        expected = bp.normalize(density, grid).sample(grid) * grid.trapezoid_weights()
        assert np.array_equal(weights, expected)


class TestFlipOverlapLink:
    """The singles weight alpha that both engines read from
    exchange_overlaps is the flip overlap of the reduced one-photon state,
    the quantity that explains the vanished MZIM singles fringe."""

    @staticmethod
    def assert_linked(state):
        alpha = bp.exchange_overlaps(state).alpha
        flip = bp.flip_overlap(bp.reduced_spatial_operator(state)).as_complex().real
        assert abs(alpha - flip) <= 1e-12
        return alpha

    @pytest.mark.parametrize("build, expected", [
        (lambda grid, g, h: bp.GeneralSpatial.product(g, g), 1.0),
        (lambda grid, g, h: bp.GeneralSpatial.product(g, h), 0.0),
        (lambda grid, g, h: bp.GeneralSpatial.from_samples(
            grid, np.outer(g.values, g.values) + np.outer(h.values, h.values)), 0.0),
        (lambda grid, g, h: bp.CorrelatedPump(
            bp.gaussian_amplitude(grid, waist=1e-3, center=0.4e-3)), None),
        (lambda grid, g, h: bp.CorrelatedPump(h), 0.0),
    ], ids=["gauss_gauss", "gauss_hg1", "even_plus_odd", "shifted_pump", "hg1_pump"])
    def test_named_states(self, grid, gauss, hg1, default_state, build, expected):
        spatial = build(grid, gauss, hg1)
        alpha = self.assert_linked(
            bp.TwoPhotonState(spatial, default_state.spectral, OMEGA_P))
        if expected is None:  # a correlated pump: |phi(0)|^2 dx
            expected = abs(spatial.pump.values[grid.center_index]) ** 2 * grid.spacing
        assert alpha == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), symmetric=st.booleans())
    def test_random_general_amplitudes(self, default_state, seed, symmetric):
        rng = np.random.default_rng(seed)
        grid = bp.SpatialGrid(half_width=3e-3, point_count=33)
        raw = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
        if symmetric:
            raw = raw + raw.T
        self.assert_linked(bp.TwoPhotonState(
            bp.GeneralSpatial.from_samples(grid, raw), default_state.spectral, OMEGA_P))


class TestDefaultState:
    def test_pump_frequency_from_wavelength(self, default_state):
        expected = 2.0 * math.pi * units.SPEED_OF_LIGHT / 405e-9
        assert default_state.pump_frequency == pytest.approx(expected, rel=1e-12)
        assert default_state.pump_frequency == pytest.approx(4.651e15, rel=1e-3)

    def test_spectral_sector_carries_the_default_grid(self, default_state):
        density = default_state.spectral.density
        assert default_state.spectral.grid == bp.default_frequency_grid(density)

    def test_filter_bandwidth_conversion(self, default_state):
        width = default_state.spectral.density.shape.full_width
        assert width == pytest.approx(DELTA_OMEGA, rel=1e-12)
        assert width == pytest.approx(2.871e13, rel=1e-3)

    def test_fringe_periods_implied_by_frequencies(self, default_state):
        singles = 2.0 * (2.0 * math.pi / default_state.pump_frequency)
        coincidence = 2.0 * math.pi / default_state.pump_frequency
        assert singles == pytest.approx(SINGLES_PERIOD, rel=1e-12)
        assert coincidence == pytest.approx(COINCIDENCE_PERIOD, rel=1e-12)
        assert singles == pytest.approx(2.702e-15, rel=1e-3)
        assert coincidence == pytest.approx(1.351e-15, rel=1e-3)
        assert coincidence / singles == pytest.approx(0.5, abs=1e-12)

    def test_reduced_flip_overlap_is_small(self, default_state):
        alpha = bp.flip_overlap(bp.reduced_spatial_operator(default_state))
        assert alpha.magnitude <= 0.02

    def test_spatial_sector_is_correlated_even_pump(self, default_state):
        assert isinstance(default_state.spatial, bp.CorrelatedPump)
        beta = bp.pump_parity_overlap(default_state.spatial.pump)
        assert beta.magnitude == pytest.approx(1.0, abs=1e-12)
        assert beta.phase == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_general_spatial_norm_enforced(self, grid):
        with pytest.raises(ValueError):
            bp.GeneralSpatial(grid, np.ones((grid.point_count, grid.point_count)))

    def test_general_spectral_norm_enforced(self):
        fgrid = bp.FrequencyGrid(half_width=1e13, point_count=9)
        with pytest.raises(ValueError):
            bp.GeneralSpectral(fgrid, np.ones((9, 9)))

    def test_positive_pump_frequency_required(self, gauss, default_state):
        with pytest.raises(ValueError):
            bp.TwoPhotonState(bp.CorrelatedPump(gauss), default_state.spectral, -1.0)

    @pytest.mark.parametrize("pump_frequency", [math.inf, math.nan])
    def test_pump_frequency_must_be_finite(self, default_state, pump_frequency):
        # an infinite one used to pass and give NaN rates
        with pytest.raises(ValueError, match="finite and positive"):
            bp.TwoPhotonState(default_state.spatial, default_state.spectral, pump_frequency)

    @pytest.mark.parametrize("build, error", [
        (lambda state: bp.Rectangular(math.nan), ValueError),
        (lambda state: bp.Gaussian(math.nan), ValueError),
        (lambda state: bp.SpectralDensity(bp.Rectangular(1.0), scale=math.nan), ValueError),
        (lambda state: bp.Tabulated((0.0, 1.0), (math.nan, 1.0)), ValueError),
        (lambda state: bp.Tabulated((0.0, math.nan), (1.0, 1.0)), ValueError),
        (lambda state: bp.TwoPhotonState(state.spatial, state.spectral, math.nan), ValueError),
        (lambda state: check_step(math.nan, 1.0), UnderSampled),
    ], ids=["rectangular", "gaussian", "scale", "tabulated_density", "tabulated_detuning",
            "pump_frequency", "check_step"])
    def test_nan_rejected(self, default_state, build, error):
        # NaN fails every comparison, so each check must be written to fail it
        with pytest.raises(error):
            build(default_state)


class _Pump(bp.CorrelatedPump):
    """A subclass of a sector kind: not a kind of its own."""


class TestSectorTables:
    """Each sector kind is one entry of the closed engine's table and one of
    the simulator's; a state refuses any other type where it is built."""

    KINDS = typing.get_args(states.SpatialSector) + typing.get_args(states.SpectralSector)

    @pytest.mark.parametrize("module, name", [(states, "_SECTORS"), (modesim, "_FACTORS")],
                             ids=["closed", "oracle"])
    def test_every_kind_has_an_entry(self, module, name):
        table = getattr(module, name)
        assert [kind.__name__ for kind in self.KINDS if kind not in table] == []
        assert [kind.__name__ for kind in table if kind not in self.KINDS] == []

    @pytest.mark.parametrize("field, build, given", [
        ("spatial", lambda state: "correlated_pump", "str"),
        ("spectral", lambda state: state.spectral.density, "SpectralDensity"),
        ("spatial", lambda state: bp.GeneralSpectral.from_samples(
            bp.FrequencyGrid(1e13, 5), np.eye(5)), "GeneralSpectral"),
        ("spectral", lambda state: state.spatial, "CorrelatedPump"),
        ("spatial", lambda state: _Pump(state.spatial.pump), "_Pump"),
    ], ids=["string", "bare_density", "spectral_as_spatial", "spatial_as_spectral",
            "subclass"])
    def test_other_types_rejected(self, default_state, field, build, given):
        sectors = {"spatial": default_state.spatial, "spectral": default_state.spectral}
        sectors[field] = build(default_state)
        kinds = ("CorrelatedPump, GeneralSpatial" if field == "spatial"
                 else "AntiCorrelated, GeneralSpectral")
        with pytest.raises(TypeError) as info:
            bp.TwoPhotonState(**sectors, pump_frequency=default_state.pump_frequency)
        assert str(info.value) == f"{field} must be one of {kinds}, got {given}"

    SGRID = bp.SpatialGrid(3e-3, 257)
    FGRID = bp.FrequencyGrid(1e13, 9)

    @pytest.mark.parametrize("field, build, given", [
        # each built, and some scanned, before the state checked its grids
        ("spectral", lambda state: bp.AntiCorrelated(state.spectral.density,
                                                     TestSectorTables.SGRID), "SpatialGrid"),
        ("spectral", lambda state: bp.GeneralSpectral.from_samples(
            TestSectorTables.SGRID, np.eye(257)), "SpatialGrid"),
        ("spatial", lambda state: bp.GeneralSpatial.from_samples(
            TestSectorTables.FGRID, np.eye(9)), "FrequencyGrid"),
        ("spatial", lambda state: bp.CorrelatedPump(bp.SpatialAmplitude.from_samples(
            TestSectorTables.FGRID, np.ones(9))), "FrequencyGrid"),
    ], ids=["anti_correlated", "general_spectral", "general_spatial", "correlated_pump"])
    def test_grids_of_the_other_kind_rejected(self, default_state, field, build, given):
        sectors = {"spatial": default_state.spatial, "spectral": default_state.spectral}
        sectors[field] = build(default_state)
        kind = "SpatialGrid" if field == "spatial" else "FrequencyGrid"
        with pytest.raises(TypeError) as info:
            bp.TwoPhotonState(**sectors, pump_frequency=default_state.pump_frequency)
        assert str(info.value) == f"{field}.grid must be a {kind}, got {given}"


class TestSharedGrid:
    """SpatialGrid and FrequencyGrid are one symmetric-grid definition."""

    GRIDS = [bp.SpatialGrid, bp.FrequencyGrid]

    def test_kinds_never_equal(self):
        assert bp.SpatialGrid(1e-3, 65) != bp.FrequencyGrid(1e-3, 65)
        assert bp.FrequencyGrid(1e-3, 65) != bp.SpatialGrid(1e-3, 65)
        assert bp.SpatialGrid(1e-3, 65) == bp.SpatialGrid(1e-3, 65)

    @pytest.mark.parametrize("half_width, count", [
        (3e-3, 257), (1.2345678e-3, 1025), (7.77e13, 129), (4.0 * 1.436e13, 4097)])
    def test_nodes_negate_exactly(self, half_width, count):
        x = bp.SpatialGrid(half_width, count).positions()
        w = bp.FrequencyGrid(half_width, count).omegas()
        for nodes in (x, w):
            assert np.array_equal(nodes[::-1], -nodes)
            assert nodes[count // 2] == 0.0
        assert np.array_equal(x, w)

    @pytest.mark.parametrize("cls", GRIDS)
    @pytest.mark.parametrize("half_width, count",
                             [(1.0, 8), (1.0, 1), (0.0, 9), (-1.0, 9), (math.nan, 9)])
    def test_invalid_grid_rejected(self, cls, half_width, count):
        with pytest.raises(ValueError):
            cls(half_width, count)


@pytest.mark.parametrize("check", [bp.flip_overlap], ids=["spatial"])
class TestDensityMatrixChecks:
    """flip_overlap checks the spatial density matrix it reads: a square
    2-d array, finite, Hermitian and of unit trace."""

    def test_valid_matrix_accepted(self, check):
        m = np.eye(5, dtype=complex) / 5
        m[0, 1], m[1, 0] = 0.05j, -0.05j
        m[0, 4], m[4, 0] = 0.1, 0.1
        assert check(m) == bp.ParityOverlap(0.4, 0.0)

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (5,), (5, 5, 1)])
    def test_wrong_shape_rejected(self, check, shape):
        with pytest.raises(ValueError, match="square 2-d array"):
            check(np.full(shape, 0.2))

    def test_non_hermitian_rejected(self, check):
        m = np.eye(5, dtype=complex) / 5
        m[0, 1] = 0.05j  # m[1, 0] stays 0
        with pytest.raises(ValueError, match="Hermitian"):
            check(m)

    @pytest.mark.parametrize("trace", [0.0, 0.999, 1.25, -1.0])
    def test_trace_not_one_rejected(self, check, trace):
        with pytest.raises(ValueError, match="trace must be 1"):
            check(np.eye(5) * trace / 5)


@pytest.mark.parametrize("cls, grid", [
    (bp.GeneralSpatial, bp.SpatialGrid(1e-3, 5)),
    (bp.GeneralSpectral, bp.FrequencyGrid(1e13, 5)),
], ids=["spatial", "spectral"])
class TestJointAmplitudeChecks:
    """GeneralSpatial and GeneralSpectral share one joint-amplitude definition."""

    def test_from_samples_is_unit_norm(self, cls, grid):
        raw = np.arange(25.0).reshape(5, 5) + 1j
        a = cls.from_samples(grid, raw)
        assert float(np.sum(np.abs(a.amplitude) ** 2)) * grid.spacing**2 == pytest.approx(1.0)
        assert not a.amplitude.flags.writeable

    def test_samples_past_the_float_range_normalised(self, cls, grid):
        # |a|^2 of 1e300 overflows; the samples are scaled down before the sum
        raw = np.arange(25.0).reshape(5, 5) + 1j
        np.testing.assert_allclose(cls.from_samples(grid, 1e300 * raw).amplitude,
                                   cls.from_samples(grid, raw).amplitude, rtol=1e-14, atol=0.0)

    def test_wrong_shape_rejected(self, cls, grid):
        with pytest.raises(ValueError, match="one row and one column"):
            cls(grid, np.full((4, 4), 0.25 / grid.spacing))

    def test_zero_amplitude_rejected(self, cls, grid):
        with pytest.raises(ValueError, match="zero amplitude"):
            cls.from_samples(grid, np.zeros((5, 5)))
