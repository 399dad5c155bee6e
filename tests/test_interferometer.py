import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton.errors import BiphotonError, UnderSampled
from biphoton.cli import bundled_config_path, load_config
from biphoton.interferometer import MAX_REACH_FRACTION, MAX_STEP_FRACTION, tau_axis

from conftest import DELTA_OMEGA, FS, OMEGA_P, on_frequency_grid, oracle_convention
from dense_reference import SPLITTERS

SKEWED = bp.SpectralDensity(bp.Tabulated((-2e13, 0.0, 1e13), (0.5, 1.0, 0.2)))
SKEWED_SECTOR = bp.AntiCorrelated(SKEWED, bp.default_frequency_grid(SKEWED))


@pytest.fixture
def coherent_even_state(default_state, sgrid):
    """Pure even transverse mode in both slots: coherent reduced state."""
    gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
    return bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                             default_state.spectral, default_state.pump_frequency)


@pytest.fixture
def coherent_odd_state(default_state, sgrid):
    hg1 = bp.hermite_gauss1_amplitude(sgrid, waist=1e-3)
    return bp.TwoPhotonState(bp.GeneralSpatial.product(hg1, hg1),
                             default_state.spectral, default_state.pump_frequency)


@pytest.fixture
def shifted_state(default_state, sgrid):
    pump = bp.gaussian_amplitude(sgrid, waist=1e-3, center=1e-3)
    return bp.TwoPhotonState(bp.CorrelatedPump(pump), default_state.spectral,
                             default_state.pump_frequency)


def assert_matches_oracle(state, cfg, via_rates=False):
    """Closed scan (or ``rates`` on its axis) against the oracle scan, to 1e-12."""
    tau_start, tau_stop, tau_step = -100e-15, 100e-15, 0.25e-15
    closed = bp.scan(state, cfg, tau_start, tau_stop, tau_step)
    got = [closed.singles_port1, closed.singles_port2, closed.coincidences]
    if via_rates:
        got = bp.rates(state, cfg, closed.tau)
    for splitter in SPLITTERS.values():
        with oracle_convention(splitter):
            oracle = bp.oracle_scan(state, cfg, tau_start, tau_stop, tau_step)
        expected = [oracle.singles_port1, oracle.singles_port2, oracle.coincidences]
        for a, b in zip(got, expected):
            assert float(np.max(np.abs(a - b))) <= 1e-12


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            bp.InterferometerConfig("mz")

    def test_constructors(self):
        assert bp.InterferometerConfig.mzi().kind == "mzi"
        assert bp.InterferometerConfig.mzim().kind == "mzim"

# (instrument kind, rates column), named by the quantity read on that
# instrument: g2 the coincidences, intensity the port-1 singles.
COLUMNS = [pytest.param(kind, column, id=f"{quantity}_{kind}")
           for quantity, column in (("g2", 2), ("intensity", 0)) for kind in (bp.MZI, bp.MZIM)]


class TestRateArguments:
    """``rates`` rejects a delay it cannot evaluate, by name; the singles
    wrapper rejects a port."""

    @pytest.mark.parametrize("kind, column", COLUMNS)
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf,
                                     np.array([0.0, 1e-15, math.nan])])
    def test_non_finite_delay_rejected(self, default_state, kind, column, tau):
        cfg = bp.InterferometerConfig(kind)
        with pytest.raises(ValueError, match="tau must be finite"):
            bp.rates(default_state, cfg, tau)[column]

    @pytest.mark.parametrize("route", ["intensity_mzim"])
    @pytest.mark.parametrize("port", [0, 3, "c"])
    def test_port_other_than_one_or_two_rejected(self, default_state, cfg_mzim, fgrid,
                                                 route, port):
        with pytest.raises(ValueError, match="port must be 1 or 2"):
            getattr(bp, route)(default_state, cfg_mzim, 0.0, fgrid, port=port)

    def test_singles_wrapper_takes_only_the_states_grid(self, shifted_state, cfg_mzim):
        own = shifted_state.spectral.grid
        expected = bp.rates(shifted_state, cfg_mzim, 20e-15)[0]
        for grid in (own, None, bp.FrequencyGrid(own.half_width, own.point_count)):
            assert bp.intensity_mzim(shifted_state, cfg_mzim, 20e-15, grid) == expected
        foreign = bp.default_frequency_grid(shifted_state.spectral.density, point_count=65)
        with pytest.raises(ValueError, match="the state's own spectral grid"):
            bp.intensity_mzim(shifted_state, cfg_mzim, 20e-15, foreign)

    @pytest.mark.parametrize("port", [1, 2])
    def test_singles_wrapper_reads_rates(self, shifted_state, cfg_mzim, fgrid, port):
        tau = np.linspace(-50.0, 50.0, 11) * FS
        assert np.array_equal(bp.intensity_mzim(shifted_state, cfg_mzim, tau, fgrid, port=port),
                              bp.rates(shifted_state, cfg_mzim, tau)[port - 1])

    def test_scalar_delay_gives_three_floats(self, shifted_state, cfg_mzim):
        values = bp.rates(shifted_state, cfg_mzim, 20e-15)
        assert len(values) == 3 and all(type(v) is float for v in values)
        assert values == tuple(float(c[0]) for c in bp.rates(shifted_state, cfg_mzim,
                                                             np.array([20e-15])))

    @pytest.mark.parametrize("kind, column", COLUMNS)
    @pytest.mark.parametrize("tau_fs", [
        [[-30.0, -10.0, 5.0], [20.0, 40.0, 75.0]],
        np.linspace(-50.0, 50.0, 6).reshape(2, 3),
    ], ids=["non_uniform", "uniform"])
    def test_two_dimensional_delays(self, shifted_state, kind, column, tau_fs):
        # raveled and reshaped: the direct sum and the chirp-z route alike
        cfg = bp.InterferometerConfig(kind)
        tau = np.asarray(tau_fs) * FS
        values = bp.rates(shifted_state, cfg, tau)[column]
        assert values.shape == (2, 3)
        flat = bp.rates(shifted_state, cfg, tau.ravel())[column]
        np.testing.assert_allclose(values, flat.reshape(2, 3), rtol=0.0, atol=1e-15)


class TestCoincidenceMzi:
    def test_zero_delay_is_full_dip(self, default_state, cfg_mzi):
        assert abs(bp.rates(default_state, cfg_mzi, 0.0)[2]) < 1e-12

    def test_dead_envelope_fringe_maximum(self, sgrid):
        # Gaussian density so the envelope is numerically exactly dead at
        # half a picosecond; pick a delay that is an odd multiple of half
        # the pump period so the sinusoid sits at its maximum: rate -> 3/2.
        sigma = 1.2e13
        density = bp.SpectralDensity(bp.Gaussian(sigma))
        state = bp.TwoPhotonState(
            bp.CorrelatedPump(bp.gaussian_amplitude(sgrid, waist=1e-3)),
            bp.AntiCorrelated(density, bp.default_frequency_grid(density)), OMEGA_P)
        cfg = bp.InterferometerConfig.mzi()
        n = round(0.5e-12 * OMEGA_P / (2.0 * math.pi))
        tau = (2 * n + 1) * math.pi / OMEGA_P
        assert sigma * tau > 5.0  # envelope < 1e-10
        assert bp.rates(state, cfg, tau)[2] == pytest.approx(1.5, abs=1e-9)

    def test_value_at_50fs_against_quadrature_and_sinc(self, default_state, cfg_mzi, fgrid):
        tau = 50e-15
        value = bp.rates(default_state, cfg_mzi, tau)[2]
        density = bp.normalize(default_state.spectral.density, fgrid)
        e2 = bp.EnvelopeEvaluator(density, fgrid).second_order(tau)
        assert value == pytest.approx(
            1.0 - 0.5 * math.cos(OMEGA_P * tau) - 0.5 * e2, abs=1e-12)
        # continuum sinc form, up to the O((h tau)^2) quadrature bias
        x = DELTA_OMEGA * tau
        sinc = math.sin(x) / x
        assert value == pytest.approx(
            1.0 - 0.5 * math.cos(OMEGA_P * tau) - 0.5 * sinc, abs=1e-5)

    def test_asymmetric_spectrum_matches_oracle(self, default_state, cfg_mzi):
        state = bp.TwoPhotonState(default_state.spatial, SKEWED_SECTOR, OMEGA_P)
        assert_matches_oracle(state, cfg_mzi, via_rates=True)


class TestSinglesMzi:
    def test_zero_delay_dark_port(self, default_state, cfg_mzi):
        assert abs(bp.rates(default_state, cfg_mzi, 0.0)[0]) < 1e-12

    def test_first_fringe_maximum_near_two(self, default_state, cfg_mzi):
        # At one pump period of delay, the envelope is still ~0.9999 and the
        # half-pump-frequency fringe reaches its first maximum.
        tau = 2.0 * math.pi / OMEGA_P
        value = bp.rates(default_state, cfg_mzi, tau)[0]
        assert value >= 1.999

    def test_negative_envelope_lobe_past_first_zero(self, default_state, cfg_mzi, fgrid):
        tau = 300e-15
        density = bp.normalize(default_state.spectral.density, fgrid)
        e1 = bp.EnvelopeEvaluator(density, fgrid).first_order(tau)
        x = DELTA_OMEGA * tau / 2.0
        assert e1 == pytest.approx(math.sin(x) / x, abs=1e-4)
        assert e1 < 0.0
        value = bp.rates(default_state, cfg_mzi, tau)[0]
        assert value == pytest.approx(
            1.0 - math.cos(OMEGA_P * tau / 2.0) * e1, abs=1e-12)
        assert abs(1.0 - value) <= abs(e1) + 1e-12

    def test_ports_sum_to_two(self, default_state, cfg_mzi):
        taus = np.linspace(-150e-15, 150e-15, 301)
        p1, p2, _ = bp.rates(default_state, cfg_mzi, taus)
        assert float(np.max(np.abs(p1 + p2 - 2.0))) < 1e-12

    def test_spatial_sector_is_never_read(
            self, default_state, coherent_even_state, coherent_odd_state, cfg_mzi):
        taus = np.linspace(-100e-15, 100e-15, 101)
        reference = bp.rates(default_state, cfg_mzi, taus)
        for state in (coherent_even_state, coherent_odd_state):
            for got, expected in zip(bp.rates(state, cfg_mzi, taus), reference):
                assert np.array_equal(got, expected)


class TestSinglesMzim:
    def test_incoherent_default_is_flat(self, default_state, cfg_mzim):
        taus = np.linspace(-200e-15, 200e-15, 501)
        values = bp.rates(default_state, cfg_mzim, taus)[0]
        assert float(np.max(np.abs(values - 1.0))) <= 0.02

    def test_coherent_even_equals_balanced_instrument(
            self, coherent_even_state, default_state, cfg_mzi, cfg_mzim):
        taus = np.linspace(-120e-15, 120e-15, 241)
        unbalanced = bp.rates(coherent_even_state, cfg_mzim, taus)[0]
        balanced = bp.rates(default_state, cfg_mzi, taus)[0]
        assert float(np.max(np.abs(unbalanced - balanced))) < 1e-9

    def test_coherent_odd_inverts_fringes(
            self, coherent_odd_state, default_state, cfg_mzi, cfg_mzim):
        taus = np.linspace(-120e-15, 120e-15, 241)
        inverted = bp.rates(coherent_odd_state, cfg_mzim, taus)[0]
        balanced = bp.rates(default_state, cfg_mzi, taus)[0]
        assert float(np.max(np.abs(inverted - (2.0 - balanced)))) < 1e-9


class TestCoincidenceMzim:
    def test_even_pump_identical_to_balanced(self, default_state, cfg_mzi, cfg_mzim):
        taus = np.linspace(-300e-15, 300e-15, 601)
        a = bp.rates(default_state, cfg_mzi, taus)[2]
        b = bp.rates(default_state, cfg_mzim, taus)[2]
        assert float(np.max(np.abs(a - b))) < 1e-12
        assert abs(bp.rates(default_state, cfg_mzim, 0.0)[2]) < 1e-12

    def test_odd_pump_flips_both_terms(self, odd_state, default_state, cfg_mzi, cfg_mzim):
        # For an odd pump both photons acquire the flip sign, so the
        # sinusoid shifts by pi at unchanged amplitude and the exchange
        # pathway inverts the dip; even and odd curves sum to the constant
        # background level 2.
        taus = np.linspace(-250e-15, 250e-15, 501)
        even = bp.rates(default_state, cfg_mzim, taus)[2]
        odd = bp.rates(odd_state, cfg_mzim, taus)[2]
        assert float(np.max(np.abs(even + odd - 2.0))) < 1e-12
        assert bp.rates(odd_state, cfg_mzim, 0.0)[2] == pytest.approx(2.0, abs=1e-9)

    def test_arbitrary_pump_matches_oracle(self, shifted_state, cfg_mzim):
        b = bp.exchange_overlaps(shifted_state).b
        assert 0.1 < b < 0.9
        assert_matches_oracle(shifted_state, cfg_mzim, via_rates=True)

    def test_general_spatial_matches_oracle(self, coherent_even_state, cfg_mzim, sgrid):
        # HG1 x G is exchange asymmetric: its singles fringe must come from
        # the symmetrised amplitude (alpha = 0 there, -1 without symmetrising).
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        hg1 = bp.hermite_gauss1_amplitude(sgrid, waist=1e-3)
        asymmetric = bp.TwoPhotonState(bp.GeneralSpatial.product(hg1, gauss),
                                       coherent_even_state.spectral, OMEGA_P)
        for state in (coherent_even_state, asymmetric):
            assert_matches_oracle(state, cfg_mzim, via_rates=True)


class TestScan:
    def test_default_scan_morphology(self, scan_mzi_fine):
        gram = scan_mzi_fine
        assert gram.tau.size == 5001
        i0 = int(np.argmin(np.abs(gram.tau)))
        assert abs(gram.coincidences[i0]) < 1e-9          # full dip at zero delay
        assert gram.coincidences.max() > 1.4              # pump-frequency fringes
        assert gram.singles_port1.max() > 1.99            # near-unit visibility
        assert gram.singles_port1.min() < 1e-4
        assert float(np.max(np.abs(gram.singles_port1 + gram.singles_port2 - 2.0))) < 1e-9

    def test_wide_scan_envelope_morphology(self, default_state, cfg_mzi):
        # +-500 fs at 0.2 fs: the singles fringe amplitude follows the
        # sinc-like envelope through its first zero (218.9 fs) into the
        # negative lobe, and the coincidence dip recovers to background.
        gram = bp.scan(default_state, cfg_mzi, -500e-15, 500e-15, 0.2e-15)
        assert gram.tau.size == 5001

        def local_fringe_amplitude(center):
            mask = np.abs(gram.tau - center) < 3e-15
            return 0.5 * (gram.singles_port1[mask].max()
                          - gram.singles_port1[mask].min())

        first_zero = 2.0 * math.pi / DELTA_OMEGA
        assert local_fringe_amplitude(first_zero) < 0.02
        assert local_fringe_amplitude(0.0) > 0.98
        lobe = local_fringe_amplitude(300e-15)
        x = DELTA_OMEGA * 300e-15 / 2.0
        assert lobe == pytest.approx(abs(math.sin(x) / x), abs=0.02)
        # coincidences: dip floor at zero delay, fringes about background 1
        edge = np.abs(gram.tau) > 400e-15
        assert gram.coincidences[edge].mean() == pytest.approx(1.0, abs=0.02)
        assert gram.coincidences.min() == pytest.approx(0.0, abs=1e-9)

    def test_unbalanced_scan_shares_coincidences(self, scan_mzi_fine, scan_mzim_fine):
        delta = np.abs(scan_mzi_fine.coincidences - scan_mzim_fine.coincidences)
        assert float(np.max(delta)) <= 1e-9
        flat = np.abs(scan_mzim_fine.singles_port1 - 1.0)
        assert float(np.max(flat)) <= 0.02

    def test_zero_width_scan(self, default_state, cfg_mzi):
        gram = bp.scan(default_state, cfg_mzi, 25e-15, 25e-15, 0.1e-15)
        assert gram.tau.size == 1
        assert gram.tau[0] == pytest.approx(25e-15)

    def test_undersampled_step_rejected(self, default_state, cfg_mzi):
        with pytest.raises(UnderSampled):
            bp.scan(default_state, cfg_mzi, -10e-15, 10e-15, 0.3e-15)

    def test_rate_bounds(self, scan_mzi_fine, default_state, fgrid):
        # Singles stay inside [0, 2].  Coincidences stay inside
        # [0, 1.5 + |E2|/2]: past the first envelope zero the dip term goes
        # negative, so the ceiling exceeds 1.5 by up to half the deepest
        # negative envelope lobe.
        gram = scan_mzi_fine
        assert float(gram.singles_port1.min()) >= -1e-9
        assert float(gram.singles_port1.max()) <= 2.0 + 1e-9
        density = bp.normalize(default_state.spectral.density, fgrid)
        e2 = bp.EnvelopeEvaluator(density, fgrid).second_order(gram.tau)
        ceiling = 1.5 + 0.5 * max(0.0, float(-e2.min()))
        assert float(gram.coincidences.min()) >= -1e-9
        assert float(gram.coincidences.max()) <= ceiling + 1e-9

    def test_provenance_snapshots(self, scan_mzi_fine):
        assert scan_mzi_fine.config["kind"] == "mzi"
        assert scan_mzi_fine.engine == "closed"
        assert "rectangular" in scan_mzi_fine.state["spectral"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-6])
    @pytest.mark.parametrize("trace", ["singles_port1", "singles_port2", "coincidences"])
    def test_invalid_rates_rejected(self, trace, bad):
        rates = {name: [1.0, 1.0] for name in ("singles_port1", "singles_port2",
                                                "coincidences")}
        rates[trace] = [1.0, bad]
        with pytest.raises(BiphotonError, match=f"{trace} contains negative or non-finite rates"):
            bp.Interferogram(tau=[0.0, 1e-15], **rates)

    @pytest.mark.parametrize("tau, rates, match", [
        ([float("nan"), 1e-15], [1.0, 1.0], "tau must be finite"),
        ([0.0, float("inf")], [1.0, 1.0], "tau must be finite"),
        # equal sizes, different shapes
        ([[0.0, 1e-15]], [[1.0], [1.0]], r"singles_port1 has shape \(2, 1\), tau \(1, 2\)"),
    ], ids=["nan_tau", "inf_tau", "transposed"])
    def test_invalid_tau_rejected(self, tau, rates, match):
        with pytest.raises(ValueError, match=match):
            bp.Interferogram(tau=tau, singles_port1=rates, singles_port2=rates,
                             coincidences=rates)

    def test_round_off_below_zero_accepted(self):
        gram = bp.Interferogram(tau=[0.0], singles_port1=[-1e-12], singles_port2=[2.0],
                                coincidences=[0.0])
        assert gram.singles_port1[0] == -1e-12


class TestScanAxisChecks:
    @pytest.mark.parametrize("args, name", [
        ((0.0, 1e-13, math.inf), "tau_step"),
        ((0.0, 1e-13, math.nan), "tau_step"),
        ((0.0, 1e-13, 0.0), "tau_step"),
        ((0.0, math.inf, 1e-15), "tau_stop"),
        ((0.0, math.nan, 1e-15), "tau_stop"),
        ((1e-13, 0.0, 1e-15), "tau_stop"),
        ((-math.inf, 0.0, 1e-15), "tau_start"),
        ((math.nan, 0.0, 1e-15), "tau_start"),
    ], ids=["inf_step", "nan_step", "zero_step", "inf_stop", "nan_stop", "stop_first",
            "inf_start", "nan_start"])
    def test_tau_axis_names_the_bad_argument(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            tau_axis(*args)

    @pytest.mark.parametrize("run", [bp.scan, bp.oracle_scan], ids=["closed", "oracle"])
    def test_non_finite_scan_end_named(self, run, default_state, cfg_mzi):
        with pytest.raises(ValueError, match="^tau_stop "):
            run(default_state, cfg_mzi, 0.0, math.inf, 1e-16)
        with pytest.raises(ValueError, match="^tau_start "):
            run(default_state, cfg_mzi, math.nan, 0.0, 1e-16)

    @pytest.mark.parametrize("run", [bp.scan, bp.oracle_scan], ids=["closed", "oracle"])
    def test_scan_stopping_before_it_starts_rejected(self, run, default_state, cfg_mzi):
        with pytest.raises(ValueError, match="^tau_stop must not precede tau_start$"):
            tau_axis(1e-15, -1e-15, 1e-16)
        with pytest.raises(ValueError, match="^tau_stop must not precede tau_start$"):
            run(default_state, cfg_mzi, 1e-15, -1e-15, 1e-16)

    def test_tau_axis_names_a_count_that_overflows(self):
        with pytest.raises(ValueError, match=r"^\(tau_stop - tau_start\) / tau_step = inf "):
            tau_axis(-1e308, 1e308, 1.0)

    @pytest.mark.parametrize("run", [bp.scan, bp.oracle_scan], ids=["closed", "oracle"])
    def test_far_reach_rejected_before_the_axis_is_built(self, run, default_state, cfg_mzi):
        # 1e7 delays would be 80 MB; the reach check runs before the axis exists
        tracemalloc.start()
        try:
            with pytest.raises(UnderSampled, match="reaches 1e\\+06 fs"):
                run(default_state, cfg_mzi, 0.0, 1e-9, 1e-16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ValueError, match=r"^\(tau_stop - tau_start\) / tau_step "):
            run(default_state, cfg_mzi, -1e308, 1e308, 1e-16)

    @staticmethod
    def on_65_points(state):
        return on_frequency_grid(
            state, bp.default_frequency_grid(state.spectral.density, point_count=65))

    def test_envelope_repeats_with_period_pi_over_h(self, default_state, cfg_mzi):
        # the artefact the reach bound keeps out: a second full HOM dip at pi / h
        state = self.on_65_points(default_state)
        fgrid = state.spectral.grid
        tau = math.pi / fgrid.spacing
        density = bp.normalize(state.spectral.density, fgrid)
        e2 = bp.EnvelopeEvaluator(density, fgrid).second_order(tau)
        assert e2 == pytest.approx(1.0, abs=1e-12)
        # rates reads the state's grid, so it sees the false dip too
        assert bp.rates(state, cfg_mzi, tau)[2] == pytest.approx(
            0.5 - 0.5 * math.cos(OMEGA_P * tau), abs=1e-9)

    @pytest.mark.parametrize("run", [bp.scan, bp.oracle_scan], ids=["closed", "oracle"])
    def test_reach_past_the_bound_rejected(self, run, default_state, cfg_mzi):
        state = self.on_65_points(default_state)
        fgrid = state.spectral.grid
        bound = MAX_REACH_FRACTION * math.pi / fgrid.spacing  # 875.4 fs on 65 points
        inside = bound * (1.0 - 1e-9)
        gram = run(state, cfg_mzi, -inside, -inside + 20e-15, 0.2e-15)
        assert gram.tau.size == 101
        run(state, cfg_mzi, inside - 20e-15, inside, 0.2e-15)
        outside = bound * (1.0 + 1e-9)
        for start, stop in ((-outside, -outside + 20e-15), (outside - 20e-15, outside)):
            with pytest.raises(UnderSampled, match="875.406 fs"):
                run(state, cfg_mzi, start, stop, 0.2e-15)


class TestScanMatchesPointFunctions:
    """The closed ``scan`` against ``rates`` at the same delays."""

    def assert_scan_matches(self, state, cfg):
        gram = bp.scan(state, cfg, -150e-15, 150e-15, 0.1e-15)
        expected = bp.rates(state, cfg, gram.tau)
        for trace, column in zip((gram.singles_port1, gram.singles_port2, gram.coincidences),
                                 expected):
            assert float(np.max(np.abs(trace - column))) <= 1e-12

    def test_mzi(self, default_state, cfg_mzi):
        self.assert_scan_matches(default_state, cfg_mzi)

    def test_mzim_even_pump(self, default_state, cfg_mzim):
        self.assert_scan_matches(default_state, cfg_mzim)

    def test_mzim_odd_pump(self, odd_state, cfg_mzim):
        self.assert_scan_matches(odd_state, cfg_mzim)

    def test_non_parity_pump_matches_oracle(self, shifted_state, cfg_mzim):
        self.assert_scan_matches(shifted_state, cfg_mzim)
        assert_matches_oracle(shifted_state, cfg_mzim)

    @pytest.mark.parametrize("kind", ["mzi", "mzim"])
    def test_asymmetric_spectrum_matches_oracle(self, default_state, kind):
        state = bp.TwoPhotonState(default_state.spatial, SKEWED_SECTOR, OMEGA_P)
        cfg = getattr(bp.InterferometerConfig, kind)()
        self.assert_scan_matches(state, cfg)
        assert_matches_oracle(state, cfg)

    @pytest.mark.parametrize("kind", ["mzi", "mzim"])
    def test_asymmetric_spectrum_rejected(self, default_state, sgrid, kind):
        # An uneven spectrum is rejected only together with an exchange-
        # asymmetric spatial amplitude: the symmetrised state is no product.
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        shifted = bp.gaussian_amplitude(sgrid, waist=1e-3, center=1e-3)
        state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, shifted),
                                  SKEWED_SECTOR, OMEGA_P)
        cfg = getattr(bp.InterferometerConfig, kind)()
        asymmetric = "both the spatial amplitude and the spectral density are exchange asymmetric"
        with pytest.raises(BiphotonError, match=asymmetric):
            bp.scan(state, cfg, -10e-15, 10e-15, 0.1e-15)
        with pytest.raises(BiphotonError, match=asymmetric):
            bp.rates(state, cfg, 10e-15)

    @pytest.mark.parametrize("kind", ["mzi", "mzim"])
    def test_general_spectrum_rejected(self, default_state, kind):
        fgrid = bp.FrequencyGrid(half_width=2e13, point_count=33)
        raw = np.eye(fgrid.point_count)[::-1] + 0.1
        spectral = bp.GeneralSpectral.from_samples(fgrid, raw)
        state = bp.TwoPhotonState(default_state.spatial, spectral, OMEGA_P)
        cfg = getattr(bp.InterferometerConfig, kind)()
        with pytest.raises(ValueError, match="anti-correlated"):
            bp.scan(state, cfg, -10e-15, 10e-15, 0.1e-15)


class TestRatesOnScanAxis:
    """``rates`` on a scan's delay axis equals the scan's columns bit for bit:
    both take E1 and E2 at the same delays and weight them in one place."""

    SGRID = bp.SpatialGrid(half_width=3e-3, point_count=17)
    FGRID = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=65)

    @staticmethod
    def assert_rates_equal_scan(state, cfg, tau_start, tau_stop, tau_step):
        gram = bp.scan(state, cfg, tau_start, tau_stop, tau_step)
        got = bp.rates(state, cfg, gram.tau)
        for column, trace in zip(got, (gram.singles_port1, gram.singles_port2,
                                       gram.coincidences)):
            assert np.array_equal(column, trace)

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_configs(self, name):
        cfg = load_config(bundled_config_path(name))
        self.assert_rates_equal_scan(cfg.state, cfg.instrument, cfg.tau_start, cfg.tau_stop,
                                     cfg.tau_step)

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           start=st.floats(min_value=0.0, max_value=1.0),
           step=st.floats(min_value=1e-3, max_value=1.0),
           count=st.integers(min_value=1, max_value=300))
    def test_random_states_and_axes(self, seed, start, step, count):
        # leaves max_examples to the profile: CI's deep step draws 3000.  The
        # axis is uniform, from anywhere in the reach bound, at up to the
        # largest step the scan accepts.
        rng = np.random.default_rng(seed)
        n = self.SGRID.point_count
        pump = bp.SpatialAmplitude.from_samples(
            self.SGRID, rng.normal(size=n) + 1j * rng.normal(size=n))
        nodes = np.sort(rng.uniform(-1.5 * DELTA_OMEGA, 1.5 * DELTA_OMEGA, size=5))
        density = bp.SpectralDensity(bp.Tabulated(tuple(nodes),
                                                  tuple(rng.uniform(0.1, 1.0, size=5))))
        state = bp.TwoPhotonState(bp.CorrelatedPump(pump),
                                  bp.AntiCorrelated(density, self.FGRID), OMEGA_P)
        tau_step = step * 0.999 * MAX_STEP_FRACTION * 2.0 * math.pi / OMEGA_P
        reach = 0.999 * MAX_REACH_FRACTION * math.pi / self.FGRID.spacing
        tau_start = -reach + start * (2.0 * reach - (count - 1) * tau_step)
        tau_stop = tau_start + (count - 1) * tau_step
        for kind in (bp.MZI, bp.MZIM):
            self.assert_rates_equal_scan(state, bp.InterferometerConfig(kind),
                                         tau_start, tau_stop, tau_step)


class TestClosedMatchesOracle:
    """Closed engine against the oracle for every state with at most one
    exchange-asymmetric sector, on both instruments and both conventions."""

    SGRID = bp.SpatialGrid(half_width=3e-3, point_count=17)
    FGRID = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=65)

    def spatial(self, kind, symmetric, rng):
        grid = self.SGRID
        waist = rng.uniform(0.5e-3, 2e-3)
        if kind == "shifted":
            pump = bp.gaussian_amplitude(grid, waist, center=rng.uniform(-1.5e-3, 1.5e-3))
        elif kind == "hg1":
            pump = bp.hermite_gauss1_amplitude(grid, waist)
        elif kind == "tabulated":
            n = grid.point_count
            pump = bp.SpatialAmplitude.from_samples(
                grid, rng.normal(size=n) + 1j * rng.normal(size=n))
        else:
            n = grid.point_count
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return bp.GeneralSpatial.from_samples(grid, raw + raw.T if symmetric else raw)
        return bp.CorrelatedPump(pump)

    def spectral(self, skewed, rng):
        if not skewed:
            return bp.AntiCorrelated(bp.SpectralDensity(bp.Rectangular(DELTA_OMEGA)), self.FGRID)
        nodes = np.sort(rng.uniform(-1.5 * DELTA_OMEGA, 1.5 * DELTA_OMEGA, size=5))
        table = bp.Tabulated(tuple(nodes), tuple(rng.uniform(0.1, 1.0, size=5)))
        return bp.AntiCorrelated(bp.SpectralDensity(table), self.FGRID)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           kind=st.sampled_from(["shifted", "hg1", "tabulated", "general"]),
           skewed=st.booleans())
    def test_closed_matches_oracle(self, seed, kind, skewed):
        rng = np.random.default_rng(seed)
        # A random general amplitude is asymmetric; with a skewed spectrum
        # it is symmetrised first, so one sector at most is asymmetric.
        spatial = self.spatial(kind, symmetric=skewed, rng=rng)
        state = bp.TwoPhotonState(spatial, self.spectral(skewed, rng), OMEGA_P)
        for kind_name in ("mzi", "mzim"):
            cfg = getattr(bp.InterferometerConfig, kind_name)()
            assert_matches_oracle(state, cfg)
