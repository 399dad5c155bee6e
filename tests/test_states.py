import math

import numpy as np
import pytest

import biphoton as bp
from biphoton import units

from conftest import COINCIDENCE_PERIOD, DELTA_OMEGA, OMEGA_P, SINGLES_PERIOD


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
        one = bp.reduce_to_one_photon(state)
        rho = one.spatial.matrix
        expected = np.abs(gauss.values) ** 2 * grid.spacing
        assert np.allclose(np.diag(rho), expected, atol=1e-15)
        off = rho - np.diag(np.diag(rho))
        assert float(np.max(np.abs(off))) == 0.0
        assert one.central_frequency == pytest.approx(OMEGA_P / 2.0)

    def test_product_amplitude_reduces_to_pure_state(self, grid, gauss, hg1, default_state):
        def reduce(phi1, phi2):
            state = bp.TwoPhotonState(
                bp.GeneralSpatial.product(phi1, phi2), default_state.spectral, OMEGA_P)
            return bp.reduced_spatial_operator(state).matrix

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
        rho = bp.reduced_spatial_operator(state).matrix

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
        one = bp.reduce_to_one_photon(state)
        rho = one.spatial.matrix
        assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-9)
        assert float(np.min(np.linalg.eigvalsh(rho))) > -1e-10

    def test_anticorrelated_reduces_to_diagonal_density(self, default_state, fgrid):
        one = bp.reduce_to_one_photon(default_state, frequency_grid=fgrid)
        weights = one.spectral.weights
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-12)
        density = bp.normalize(default_state.spectral.density, fgrid).sample(fgrid)
        interior = slice(1, -1)
        assert np.allclose(
            weights[interior], density[interior] * fgrid.spacing, rtol=1e-12)

    def test_general_spectral_reduces_to_hermitian_density(self, grid, gauss, default_state):
        fgrid = bp.FrequencyGrid(half_width=2e13, point_count=33)
        rng = np.random.default_rng(5)
        m = fgrid.point_count
        raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        spectral = bp.GeneralSpectral.from_samples(fgrid, raw)
        state = bp.TwoPhotonState(bp.CorrelatedPump(gauss), spectral, OMEGA_P)
        one = bp.reduce_to_one_photon(state)
        rho = one.spectral.matrix
        assert float(np.real(np.trace(rho))) == pytest.approx(1.0, abs=1e-9)
        assert float(np.max(np.abs(rho - rho.conj().T))) < 1e-12


class TestDefaultState:
    def test_pump_frequency_from_wavelength(self, default_state):
        expected = 2.0 * math.pi * units.SPEED_OF_LIGHT / 405e-9
        assert default_state.pump_frequency == pytest.approx(expected, rel=1e-12)
        assert default_state.pump_frequency == pytest.approx(4.651e15, rel=1e-3)

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
