import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton.errors import ZeroDensity
from biphoton.interferometer import tau_axis
from biphoton.spectral import _uniform_step, chirp_z

from conftest import DELTA_OMEGA


def rect_density(width=DELTA_OMEGA, scale=1.0):
    return bp.SpectralDensity(bp.Rectangular(width), scale=scale)


def gauss_density(sigma, scale=1.0):
    return bp.SpectralDensity(bp.Gaussian(sigma), scale=scale)


class TestFrequencyGrid:
    def test_basic_geometry(self):
        grid = bp.FrequencyGrid(half_width=1e13, point_count=5)
        om = grid.omegas()
        assert om.shape == (5,)
        assert om[2] == 0.0
        assert np.array_equal(om, -om[::-1])
        assert grid.spacing == pytest.approx(0.5e13)

    @pytest.mark.parametrize("count", [2, 4, 1024])
    def test_even_count_rejected(self, count):
        with pytest.raises(ValueError):
            bp.FrequencyGrid(half_width=1e13, point_count=count)


class TestNormalize:
    def test_rectangle_already_normalized_is_unchanged(self):
        sd = rect_density()
        grid = bp.default_frequency_grid(sd)
        # height 1/width with band edges on grid nodes integrates to 1 as-is
        assert np.trapezoid(sd.sample(grid), dx=grid.spacing) == pytest.approx(1.0, abs=1e-12)
        assert bp.normalize(sd, grid).scale == pytest.approx(1.0, abs=1e-12)

    def test_tabulated_constant_rescales_uniformly(self):
        width = 2e13
        sd = bp.SpectralDensity(bp.Tabulated((-width / 2, width / 2), (2.0, 2.0)))
        grid = bp.FrequencyGrid(half_width=width / 2, point_count=129)
        out = bp.normalize(sd, grid).sample(grid)
        assert np.allclose(out, 1.0 / width, rtol=1e-12)

    def test_gaussian_prefactor_reaches_unit_integral(self):
        sd = gauss_density(1.2e13, scale=7.3)
        grid = bp.default_frequency_grid(sd)
        out = bp.normalize(sd, grid)
        # independent trapezoid quadrature of the returned samples
        integral = np.trapezoid(out.sample(grid), dx=grid.spacing)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_zero_density_on_grid_raises(self):
        table = bp.SpectralDensity(bp.Tabulated((5e13, 6e13), (1.0, 1.0)))
        grid = bp.FrequencyGrid(half_width=1e13, point_count=65)
        with pytest.raises(ZeroDensity):
            bp.normalize(table, grid)

    def test_non_finite_total_raises_naming_the_density(self, monkeypatch):
        table = bp.SpectralDensity(bp.Tabulated((0.0, 1.0), (math.inf, 1.0)))
        grid = bp.FrequencyGrid(half_width=2.0, point_count=9)
        with pytest.raises(ZeroDensity, match=r"tabulated\(2 points\) integrates to inf"):
            bp.normalize(table, grid)
        monkeypatch.setattr(bp.Tabulated, "sample",
                            lambda self, grid: np.full(grid.point_count, math.nan))
        with pytest.raises(ZeroDensity, match="integrates to nan"):
            bp.normalize(table, grid)

    @pytest.mark.parametrize("rms_width", [5e-324, 1e-170, 1e160])
    def test_gaussian_width_with_unrepresentable_square_rejected(self, rms_width):
        # the samples divide by rms_width**2: 0 would give 0/0 at W = 0
        with pytest.raises(ValueError, match="rms_width"):
            bp.Gaussian(rms_width)

    def test_negative_tabulated_density_rejected(self):
        with pytest.raises(ValueError):
            bp.Tabulated((-1e13, 0.0, 1e13), (0.5, -0.1, 0.5))


@pytest.mark.filterwarnings("error")
class TestUnrepresentableSpectralInputs:
    """Inputs whose samples numpy cannot form fail with a named ValueError
    before any arithmetic warns."""

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_positive_and_finite(self, scale):
        # inf would sample inf * 0 outside the band
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            bp.SpectralDensity(bp.Rectangular(1e13), scale=scale)

    @pytest.mark.parametrize("width", [5e-324, math.inf, math.nan, 0.0])
    def test_rectangle_width_must_have_a_positive_half(self, width):
        with pytest.raises(ValueError, match="full_width must be finite with a positive half"):
            bp.Rectangular(width)

    @pytest.mark.parametrize("width, grid", [
        (1e-320, None),  # the default grid's spacing times the width underflows to 0
        (1e300, bp.FrequencyGrid(half_width=1e300, point_count=3)),  # overflows to inf
    ], ids=["underflow", "overflow"])
    def test_rectangle_cell_must_be_finite_and_positive(self, width, grid):
        sd = bp.SpectralDensity(bp.Rectangular(width))
        grid = grid or bp.default_frequency_grid(sd)
        with pytest.raises(ValueError, match=r"full_width .* times the grid spacing"):
            sd.sample(grid)

    @pytest.mark.parametrize("width", [1e308, 1.7e308])
    def test_default_grid_of_a_huge_rectangle_rejected(self, width):
        # four times the half width overflows to inf
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            bp.default_frequency_grid(bp.SpectralDensity(bp.Rectangular(width)))

    @pytest.mark.parametrize("grid_class", [bp.FrequencyGrid, bp.SpatialGrid])
    @pytest.mark.parametrize("half_width", [math.inf, math.nan, 0.0])
    def test_grid_half_width_must_be_finite(self, grid_class, half_width):
        with pytest.raises(ValueError, match="half_width must be positive and finite"):
            grid_class(half_width=half_width, point_count=9)


class TestEnvelopes:
    def test_unit_value_at_zero_delay(self, fgrid, default_state):
        sd = bp.normalize(default_state.spectral.density, fgrid)
        assert bp.envelope_first_order(sd, fgrid, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert bp.envelope_second_order(sd, fgrid, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_rectangle_first_zero(self):
        sd = rect_density()
        grid = bp.default_frequency_grid(sd)
        sd = bp.normalize(sd, grid)
        tau_zero = 2.0 * math.pi / DELTA_OMEGA
        assert abs(bp.envelope_first_order(sd, grid, tau_zero)) <= 1e-6

    def test_rectangle_against_discrete_and_continuum_sinc(self):
        # The trapezoid sum over the band with on-grid edges has the exact
        # closed form sinc(w tau / 2) * (h tau / 2) / tan(h tau / 2), where
        # h is the grid spacing (Dirichlet kernel).  The continuum sinc is
        # recovered up to that O((h tau)^2) discretization bias, about 7e-6
        # at 100 fs on the default grid.
        sd = rect_density()
        grid = bp.default_frequency_grid(sd)
        sd = bp.normalize(sd, grid)
        tau = 100e-15
        value = bp.envelope_first_order(sd, grid, tau)
        x = DELTA_OMEGA * tau / 2.0
        continuum = math.sin(x) / x
        theta = grid.spacing * tau / 2.0
        discrete = continuum * theta / math.tan(theta)
        assert value == pytest.approx(discrete, abs=1e-12)
        assert value == pytest.approx(continuum, abs=2e-5)

    def test_second_order_is_first_order_at_doubled_delay(self, fgrid, default_state):
        sd = bp.normalize(default_state.spectral.density, fgrid)
        env = bp.EnvelopeEvaluator(sd, fgrid)
        taus = np.linspace(-400e-15, 400e-15, 41)
        assert np.array_equal(env.second_order(taus), env.first_order(2.0 * taus))

    def test_rectangle_second_order_zero(self):
        sd = rect_density()
        grid = bp.default_frequency_grid(sd)
        sd = bp.normalize(sd, grid)
        assert abs(bp.envelope_second_order(sd, grid, math.pi / DELTA_OMEGA)) <= 1e-6

    def test_gaussian_matches_fourier_pair(self):
        sigma = 1.2e13
        sd = gauss_density(sigma)
        grid = bp.default_frequency_grid(sd)
        sd = bp.normalize(sd, grid)
        for tau in (0.0, 23e-15, 60e-15, 140e-15):
            expected = math.exp(-2.0 * sigma**2 * tau**2)
            assert bp.envelope_second_order(sd, grid, tau) == pytest.approx(expected, abs=1e-8)
            assert bp.envelope_first_order(sd, grid, tau) == pytest.approx(
                math.exp(-0.5 * sigma**2 * tau**2), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(min_value=-500e-15, max_value=500e-15))
    def test_bounded_and_even(self, tau):
        sd = rect_density()
        grid = bp.default_frequency_grid(sd)
        sd = bp.normalize(sd, grid)
        env = bp.EnvelopeEvaluator(sd, grid)
        value = env.first_order(tau)
        assert abs(value) <= 1.0 + 1e-12
        assert value == pytest.approx(env.first_order(-tau), abs=1e-12)

    def test_bandwidth_reciprocity_of_first_zero(self):
        # Doubling the band width halves the first zero crossing; located by
        # bisection on the quadrature envelope itself.
        def first_zero(width):
            sd = rect_density(width)
            grid = bp.default_frequency_grid(sd)
            env = bp.EnvelopeEvaluator(bp.normalize(sd, grid), grid)
            lo, hi = 0.5 * math.pi / width, 4.0 * math.pi / width
            assert env.first_order(lo) > 0 > env.first_order(hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if env.first_order(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        ratio = first_zero(DELTA_OMEGA) / first_zero(2.0 * DELTA_OMEGA)
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_grid_refinement_converges(self):
        # Smooth densities: the trapezoid rule converges superalgebraically,
        # so halving the spacing moves E1 by far less than 1e-6.
        sigma = 1.2e13
        taus = np.linspace(-500e-15, 500e-15, 101)
        values = {}
        for count in (1025, 2049):
            sd = gauss_density(sigma)
            grid = bp.default_frequency_grid(sd, point_count=count)
            values[count] = bp.EnvelopeEvaluator(bp.normalize(sd, grid), grid).first_order(taus)
        assert float(np.max(np.abs(values[1025] - values[2049]))) < 1e-6

    def test_grid_refinement_rectangle_documented_rate(self):
        # The band edges make the rectangle's quadrature bias O((h tau)^2);
        # halving the spacing moves E1 by ~2e-5 at 500 fs, not 1e-6.  Pin
        # the observed rate so regressions are caught.
        taus = np.linspace(-500e-15, 500e-15, 101)
        values = {}
        for count in (1025, 2049):
            sd = rect_density()
            grid = bp.default_frequency_grid(sd, point_count=count)
            values[count] = bp.EnvelopeEvaluator(bp.normalize(sd, grid), grid).first_order(taus)
        worst = float(np.max(np.abs(values[1025] - values[2049])))
        assert worst < 5e-5


def direct_first_order(sd, grid, tau):
    """Reference E1: the dense cos(outer) @ w trapezoid sum."""
    weights = sd.sample(grid) * grid.trapezoid_weights()
    return np.cos(np.outer(np.atleast_1d(tau), grid.omegas())) @ weights


class TestChirpZKernel:
    SHAPES = {
        "rectangular": bp.Rectangular(DELTA_OMEGA),
        "gaussian": bp.Gaussian(1.2e13),
        "tabulated": bp.Tabulated((-2e13, 0.0, 1e13), (0.5, 1.0, 0.2)),
    }

    @pytest.mark.parametrize("count", [3, 1025, 4097])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_direct_sum(self, shape, count):
        sd = bp.SpectralDensity(self.SHAPES[shape])
        grid = bp.default_frequency_grid(sd, point_count=count)
        sd = bp.normalize(sd, grid)
        env = bp.EnvelopeEvaluator(sd, grid)
        step = 0.08e-15
        for start in (-200e-15, 0.0, 150e-15):
            for size in (1, 2, 5001):
                tau = tau_axis(start, start + (size - 1) * step, step)
                assert tau.size == size
                e1 = env.first_order(tau)
                e2 = env.second_order(tau)
                assert e1.shape == e2.shape == (size,)
                assert float(np.max(np.abs(e1 - direct_first_order(sd, grid, tau)))) <= 1e-12
                assert float(np.max(np.abs(
                    e2 - direct_first_order(sd, grid, 2.0 * tau)))) <= 1e-12

    def test_scalars_and_non_uniform_arrays_use_direct_sum(self, fgrid, default_state):
        sd = bp.normalize(default_state.spectral.density, fgrid)
        env = bp.EnvelopeEvaluator(sd, fgrid)
        for tau in (0.0, -37e-15, 123.4e-15):
            assert env.first_order(tau) == direct_first_order(sd, fgrid, tau)[0]
            assert env.second_order(tau) == direct_first_order(sd, fgrid, 2.0 * tau)[0]
        rng = np.random.default_rng(3)
        taus = np.sort(rng.uniform(-300e-15, 300e-15, 257))
        assert np.array_equal(env.first_order(taus), direct_first_order(sd, fgrid, taus))
        assert np.array_equal(env.first_order(taus[:1]), direct_first_order(sd, fgrid, taus[:1]))

    def test_uniform_axis_detection(self):
        axis = tau_axis(-200e-15, 200e-15, 0.08e-15)
        for tau in (axis, 2.0 * axis, axis[::-1], np.linspace(0.0, 1e-12, 7), np.zeros(4)):
            assert _uniform_step(tau) == pytest.approx((tau[-1] - tau[0]) / (tau.size - 1))
        bumped = axis.copy()
        bumped[17] += 1e-6 * 0.08e-15
        with_nan = axis.copy()
        with_nan[3] = np.nan
        for tau in (axis[:1], bumped, with_nan, np.geomspace(1e-15, 1e-13, 50),
                    axis[:4].reshape(2, 2)):
            assert _uniform_step(tau) is None


class TestComplexKernel:
    """The batched complex kernel against the direct sum, row by row."""

    @pytest.mark.parametrize("size", [3, 33, 2049])
    @pytest.mark.parametrize("count", [1, 2, 241])
    def test_batched_rows_match_direct_sum(self, size, count):
        rng = np.random.default_rng(size + count)
        u = rng.normal(size=(4, 5, size)) + 1j * rng.normal(size=(4, 5, size))
        u /= np.sum(np.abs(u), axis=-1, keepdims=True)
        h, step = 1.1e11, 0.25e-15
        n = np.arange(size) - size // 2
        for tau0 in (-30e-15, 0.0, 17e-15):
            tau = tau0 + step * np.arange(count)
            got = chirp_z(u, h, tau0, step, count)
            assert got.shape == (4, 5, count)
            direct = u @ np.exp(1j * h * np.outer(n, tau))
            assert float(np.max(np.abs(got - direct))) <= 1e-12

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_are_independent_bit_for_bit(self, real):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(2, 3, 129))
        if not real:
            u = u + 1j * rng.normal(size=u.shape)
        args = (1.1e11, -20e-15, 0.3e-15, 57)
        got = chirp_z(u, *args)
        assert got.shape == (2, 3, 57)
        for index in np.ndindex(2, 3):
            assert np.array_equal(got[index], chirp_z(u[index], *args))

    def test_one_row_returns_one_axis(self):
        got = chirp_z(np.ones(33), 1.1e11, 0.0, 0.25e-15, 7)
        assert got.shape == (7,)
        assert got[0] == pytest.approx(33.0)

    def test_workspace_does_not_grow_with_rows(self):
        # 12 rows of 8193 points, 801 delays: the oracle's delay table on a
        # 4097-point grid, padded to 16384.  A 12 x 16384 complex temporary
        # alone is 3 MB; the row loop peaks near 1 MB.
        u = np.random.default_rng(0).normal(size=(12, 8193)) + 0j
        args = (1.1e11, -20e-15, 0.05e-15, 801)
        chirp_z(u, *args)  # FFT plans built outside the trace
        tracemalloc.start()
        try:
            chirp_z(u, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestSymmetryFlag:
    def test_analytic_shapes_are_even(self, fgrid, default_state):
        assert default_state.spectral.density.is_even_on(fgrid)
        sd = gauss_density(1e13)
        grid = bp.default_frequency_grid(sd)
        assert sd.is_even_on(grid)

    def test_asymmetric_table_is_flagged(self):
        sd = bp.SpectralDensity(bp.Tabulated((-2e13, 0.0, 1e13), (0.5, 1.0, 0.2)))
        grid = bp.FrequencyGrid(half_width=4e13, point_count=257)
        assert not sd.is_even_on(grid)
