import math

import numpy as np
import pytest

import biphoton as bp

WAIST = 1e-3


def coherent(phi):
    """Pure state |phi><phi| as a unit-trace matrix, outer(phi, phi*) dx."""
    return np.outer(phi.values, phi.values.conj()) * phi.grid.spacing


def incoherent(phi):
    """Position-diagonal mixture with weights |phi(x_i)|^2 dx."""
    return np.diag(phi.position_weights().astype(complex))


@pytest.fixture
def grid():
    return bp.default_spatial_grid()


@pytest.fixture
def gauss(grid):
    return bp.gaussian_amplitude(grid, waist=WAIST)


@pytest.fixture
def hg1(grid):
    return bp.hermite_gauss1_amplitude(grid, waist=WAIST)


class TestGridAndAmplitudes:
    def test_positions_symmetric(self, grid):
        x = grid.positions()
        assert np.array_equal(x, -x[::-1])
        assert x[grid.center_index] == 0.0
        assert grid.spacing == pytest.approx(6e-3 / 256)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            bp.SpatialGrid(half_width=1e-3, point_count=8)

    def test_amplitudes_unit_norm(self, grid, gauss, hg1):
        for phi in (gauss, hg1):
            norm = float(np.sum(np.abs(phi.values) ** 2)) * grid.spacing
            assert norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1.5e308])
    def test_samples_past_the_float_range_normalised(self, grid, gauss, scale):
        # |phi|^2 overflows; the samples are scaled down before the sum
        raw = scale * np.exp(-(grid.positions() / 1e-3) ** 2) * (1.0 + 1.0j)
        phi = bp.SpatialAmplitude.from_samples(grid, raw)
        np.testing.assert_allclose(phi.values, gauss.values * (1.0 + 1.0j) / math.sqrt(2.0),
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-160, 1e-300])
    def test_samples_below_the_float_range_normalised(self, grid, gauss, scale):
        # |phi|^2 underflows; nonzero samples are scaled up, not reported as zero
        raw = scale * np.exp(-(grid.positions() / 1e-3) ** 2) * (1.0 + 1.0j)
        phi = bp.SpatialAmplitude.from_samples(grid, raw)
        np.testing.assert_allclose(phi.values, gauss.values * (1.0 + 1.0j) / math.sqrt(2.0),
                                   rtol=1e-14, atol=0.0)

    def test_zero_samples_rejected(self, grid):
        with pytest.raises(ValueError, match="cannot normalize a zero amplitude"):
            bp.SpatialAmplitude.from_samples(grid, np.zeros(grid.point_count))

    def test_unnormalized_values_rejected(self, grid):
        with pytest.raises(ValueError):
            bp.SpatialAmplitude(grid, np.ones(grid.point_count))

    def test_parity_of_profiles(self, gauss, hg1):
        assert np.array_equal(gauss.values, gauss.flipped())
        assert np.allclose(hg1.values, -hg1.flipped(), atol=1e-15)


class TestFlipOverlap:
    def test_coherent_even_gaussian(self, gauss):
        alpha = bp.flip_overlap(coherent(gauss))
        assert alpha.magnitude == pytest.approx(1.0, abs=1e-9)
        assert alpha.phase == pytest.approx(0.0, abs=1e-9)

    def test_incoherent_vanishes_with_spacing(self, grid, gauss):
        alpha = bp.flip_overlap(incoherent(gauss))
        assert alpha.magnitude <= 0.02
        # single surviving anti-diagonal entry at x = 0
        expected = abs(gauss.values[grid.center_index]) ** 2 * grid.spacing
        assert alpha.magnitude == pytest.approx(expected, rel=1e-12)

        fine_grid = bp.default_spatial_grid(point_count=513)
        fine = bp.gaussian_amplitude(fine_grid, waist=WAIST)
        alpha_fine = bp.flip_overlap(incoherent(fine))
        assert alpha_fine.magnitude / alpha.magnitude == pytest.approx(0.5, abs=1e-6)

    def test_coherent_odd_mode(self, hg1):
        alpha = bp.flip_overlap(coherent(hg1))
        assert alpha.magnitude == pytest.approx(1.0, abs=1e-9)
        assert abs(alpha.phase) == pytest.approx(math.pi, abs=1e-9)

    def test_global_phase_invariance(self, grid, gauss):
        rotated = bp.SpatialAmplitude(grid, gauss.values * np.exp(0.7j))
        a = bp.flip_overlap(coherent(gauss))
        b = bp.flip_overlap(coherent(rotated))
        assert b.magnitude == pytest.approx(a.magnitude, abs=1e-12)
        assert b.phase == pytest.approx(a.phase, abs=1e-9)

    def test_coherent_flip_equals_pump_parity(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(5):
            raw = rng.normal(size=grid.point_count) + 1j * rng.normal(size=grid.point_count)
            phi = bp.SpatialAmplitude.from_samples(grid, raw)
            alpha = bp.flip_overlap(coherent(phi))
            beta = bp.pump_parity_overlap(phi)
            assert alpha.magnitude == pytest.approx(beta.magnitude, abs=1e-12)


class TestPumpParity:
    def test_even_gaussian(self, gauss):
        beta = bp.pump_parity_overlap(gauss)
        assert beta.magnitude == pytest.approx(1.0, abs=1e-12)
        assert beta.phase == pytest.approx(0.0, abs=1e-12)

    def test_odd_mode(self, hg1):
        beta = bp.pump_parity_overlap(hg1)
        assert beta.magnitude == pytest.approx(1.0, abs=1e-12)
        assert abs(beta.phase) == pytest.approx(math.pi, abs=1e-12)

    def test_shifted_gaussian_reduction(self, grid):
        shifted = bp.gaussian_amplitude(grid, waist=WAIST, center=WAIST)
        beta = bp.pump_parity_overlap(shifted)
        # direct summation oracle
        direct = complex(0.0)
        values = shifted.values
        n = grid.point_count
        for i in range(n):
            direct += np.conj(values[i]) * values[n - 1 - i] * grid.spacing
        assert beta.magnitude == pytest.approx(abs(direct), rel=1e-12)
        assert beta.magnitude < 1.0
        # Gaussian overlap closed form exp(-2 x0^2 / w^2) at shift x0; the
        # grid truncates the shifted tail at two waists (e^-8 ~ 3e-4), which
        # feeds back through normalization at the 3e-5 level.
        assert beta.magnitude == pytest.approx(math.exp(-2.0), rel=1e-4)


class TestDensityOperatorValidation:
    """Invalid amplitudes, and invalid density matrices given to flip_overlap, are rejected."""

    def test_non_hermitian_rejected(self, grid):
        m = np.zeros((grid.point_count, grid.point_count), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        with pytest.raises(ValueError):
            bp.flip_overlap(m)

    def test_wrong_trace_rejected(self, grid, gauss):
        m = 2.0 * np.outer(gauss.values, gauss.values.conj()) * grid.spacing
        with pytest.raises(ValueError):
            bp.flip_overlap(m)

    @pytest.mark.parametrize("build, needle", [
        (lambda g: bp.SpatialAmplitude(g, [math.nan] * 5), "amplitude norm"),
        (lambda g: bp.GeneralSpatial(g, np.full((5, 5), math.nan)), "joint spatial norm"),
        (lambda g: bp.flip_overlap(np.diag([math.nan, 1.0, 0.0, 0.0, 0.0])),
         "finite and Hermitian"),
    ], ids=["amplitude", "general_spatial", "density_operator"])
    def test_nan_rejected(self, build, needle):
        # NaN fails every comparison, so each check must be written to fail it
        with pytest.raises(ValueError, match=needle):
            build(bp.SpatialGrid(half_width=1e-3, point_count=5))
