import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton.analysis import FLATNESS_FRINGE_FLOOR, reports
from biphoton.errors import BiphotonError, NoDip, NoFringe

from conftest import COINCIDENCE_PERIOD, DELTA_OMEGA, OMEGA_P, SINGLES_PERIOD


def slow_dip_trace(taus, envelope):
    """Coincidence trace without fringes: 1 - envelope(tau)/2."""
    return 1.0 - 0.5 * envelope(taus)


class TestVisibility:
    def test_flat_trace(self):
        assert bp.visibility([1.0, 1.0, 1.0]) == 0.0

    def test_zero_minimum_gives_unity(self):
        assert bp.visibility([0.0, 0.3, 1.7]) == 1.0

    def test_errors(self):
        with pytest.raises(BiphotonError, match="samples must be a nonempty 1-d sequence"):
            bp.visibility([])
        with pytest.raises(BiphotonError, match="rates must be nonnegative"):
            bp.visibility([0.5, -0.2])
        with pytest.raises(BiphotonError, match="maximum rate must be positive"):
            bp.visibility([0.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        base = np.array([0.2, 1.4, 0.9, 0.4])
        assert bp.visibility(scale * base) == pytest.approx(
            bp.visibility(base), abs=1e-12)

    def test_rates_near_float_max(self):
        # hi + lo overflows to inf here; the true value is 0.7 / 2.7
        v = bp.visibility([1.7e308, 1e308])
        assert v == pytest.approx((1.7 - 1.0) / 2.7, rel=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_raises(self, value):
        with pytest.raises(BiphotonError, match="rates must be finite"):
            bp.visibility([value, 1.0])

    def test_background_subtraction_raises_visibility(self):
        base = np.array([0.5, 1.0, 1.5])
        v0 = bp.visibility(base)
        v1 = bp.visibility(base - 0.4)
        assert v1 > v0

    def test_default_singles_scan_nearly_unit(self, scan_mzi_fine):
        assert bp.visibility(scan_mzi_fine.singles_port1) >= 0.99


class TestFringePeriod:
    def test_recovers_half_pump_frequency_cosine(self):
        taus = np.arange(-200e-15, 200e-15, 0.2e-15)
        trace = 1.0 - np.cos(OMEGA_P * taus / 2.0)
        period = bp.fringe_period(trace, taus, min_samples_per_period=8)
        assert period == pytest.approx(4.0 * math.pi / OMEGA_P, rel=0.01)

    def test_default_singles_period(self, scan_mzi_fine):
        period = bp.fringe_period(scan_mzi_fine.singles_port1, scan_mzi_fine.tau)
        assert period == pytest.approx(SINGLES_PERIOD, rel=0.01)

    def test_default_coincidence_period(self, scan_mzi_fine):
        period = bp.fringe_period(scan_mzi_fine.coincidences, scan_mzi_fine.tau)
        assert period == pytest.approx(COINCIDENCE_PERIOD, rel=0.01)

    def test_flat_trace_has_no_fringe(self):
        taus = np.arange(0.0, 100e-15, 0.1e-15)
        with pytest.raises(NoFringe):
            bp.fringe_period(np.ones_like(taus), taus)

    def test_underresolved_period_rejected(self):
        taus = np.arange(0.0, 400e-15, 0.2e-15)
        trace = 1.0 + 0.5 * np.cos(2.0 * math.pi * taus / (2e-15))
        with pytest.raises(BiphotonError, match="spans fewer than 16 samples"):
            bp.fringe_period(trace, taus)  # 10 samples per period < 16

    def test_residual_unbalanced_fringe_is_physical(self, scan_mzim_fine):
        # On a finite grid the flip overlap is O(dx) ~ 0.019, so the
        # "flat" singles trace carries a real 1.9 % fringe: the raw
        # operation detects it at its documented 1e-6 floor...
        period = bp.fringe_period(scan_mzim_fine.singles_port1, scan_mzim_fine.tau)
        assert period == pytest.approx(SINGLES_PERIOD, rel=0.01)
        # ...while the flatness-consistent report floor (1e-2) calls it flat.
        with pytest.raises(NoFringe):
            bp.fringe_period(scan_mzim_fine.singles_port1, scan_mzim_fine.tau,
                             min_relative_peak=1e-2)

    def test_grid_mismatch(self):
        with pytest.raises(BiphotonError, match="samples and delay grid differ in length"):
            bp.fringe_period([1.0, 2.0], np.zeros(3))


class TestHomDipFwhm:
    def make_scan(self, envelope, half_width=250e-15, step=0.08e-15, fringes=True):
        taus = np.arange(-half_width, half_width + step / 2, step)
        slow = slow_dip_trace(taus, envelope)
        if fringes:
            trace = slow - 0.5 * np.cos(OMEGA_P * taus)
        else:
            trace = slow
        return taus, trace

    def test_rectangular_bandwidth_reciprocity(self):
        def fwhm_for(width):
            def envelope(taus):
                x = width * taus
                return np.where(np.abs(x) < 1e-12, 1.0, np.sin(x) / np.where(x == 0, 1, x))

            taus, trace = self.make_scan(envelope)
            return bp.hom_dip_fwhm(trace, taus, OMEGA_P)

        narrow = fwhm_for(DELTA_OMEGA)
        wide = fwhm_for(2.0 * DELTA_OMEGA)
        assert narrow / wide == pytest.approx(2.0, rel=0.05)
        # sinc dip half level sits at sinc(x) = 1/2, x = 1.8955
        assert narrow == pytest.approx(2.0 * 1.8954942670339809 / DELTA_OMEGA, rel=0.1)

    def test_gaussian_matches_analytic_width(self):
        sigma = 1.2e13

        def envelope(taus):
            return np.exp(-2.0 * sigma**2 * taus**2)

        taus, trace = self.make_scan(envelope)
        expected = math.sqrt(2.0 * math.log(2.0)) / sigma
        assert bp.hom_dip_fwhm(trace, taus, OMEGA_P) == pytest.approx(expected, rel=0.01)

    def test_invariant_under_fringe_addition(self):
        sigma = 1.2e13

        def envelope(taus):
            return np.exp(-2.0 * sigma**2 * taus**2)

        taus, with_fringes = self.make_scan(envelope, fringes=True)
        _, without = self.make_scan(envelope, fringes=False)
        a = bp.hom_dip_fwhm(with_fringes, taus, OMEGA_P)
        b = bp.hom_dip_fwhm(without, taus, OMEGA_P)
        assert a == pytest.approx(b, rel=0.01)

    def test_flat_trace_has_no_dip(self):
        taus = np.arange(-100e-15, 100e-15, 0.1e-15)
        with pytest.raises(NoDip):
            bp.hom_dip_fwhm(np.ones_like(taus), taus, OMEGA_P)

    @staticmethod
    def walked_fwhm(samples, tau, fringe_frequency):
        """Reference: the notch, then a sample-by-sample walk out from the minimum."""
        spectrum = np.fft.rfft(samples)
        omega = 2.0 * np.pi * np.fft.rfftfreq(samples.size, d=tau[1] - tau[0])
        spectrum[omega > 0.25 * fringe_frequency] = 0.0
        slow = np.fft.irfft(spectrum, n=samples.size)
        i_min = int(np.argmin(slow))
        distance = np.abs(tau - tau[i_min])
        baseline = float(np.median(slow[distance >= 0.8 * float(distance.max())]))
        depth = baseline - float(slow[i_min])
        if depth < 1e-3:
            raise NoDip("shallow")
        level = baseline - 0.5 * depth

        def crossing(direction):
            i = i_min
            while 0 < i < samples.size - 1:
                j = i + direction
                if slow[j] >= level:
                    frac = (level - slow[i]) / (slow[j] - slow[i])
                    return float(tau[i] + frac * (tau[j] - tau[i]))
                i = j
            raise NoDip("no recovery")

        return crossing(+1) - crossing(-1)

    @settings(max_examples=60, deadline=None)
    @given(centre=st.floats(min_value=-1.2, max_value=1.2),
           width=st.floats(min_value=0.02, max_value=1.0),
           depth=st.floats(min_value=0.0, max_value=1.0),
           count=st.sampled_from([1000, 1001]),
           fringes=st.booleans())
    def test_vectorised_crossings_equal_the_walk(self, centre, width, depth, count, fringes):
        # the dip may sit off-centre, touch the edge or not recover inside the scan
        taus = np.linspace(-100e-15, 100e-15, count)
        x = taus / 100e-15
        trace = 1.0 - depth * np.exp(-(((x - centre) / width) ** 2))
        if fringes:
            trace = trace - 0.5 * depth * np.cos(OMEGA_P * taus)
        try:
            expected = self.walked_fwhm(trace, taus, OMEGA_P)
        except NoDip:
            with pytest.raises(NoDip):
                bp.hom_dip_fwhm(trace, taus, OMEGA_P)
        else:
            assert bp.hom_dip_fwhm(trace, taus, OMEGA_P) == expected

    def test_default_scan_dip_width(self, scan_mzi_fine):
        # On the +-200 fs window the robust baseline (median of the outer
        # fifth) sits on the envelope's first negative lobe, biasing the
        # width high by ~11%; the precise-width checks above use windows
        # whose edges are quiet.
        fwhm = bp.hom_dip_fwhm(scan_mzi_fine.coincidences, scan_mzi_fine.tau, OMEGA_P)
        assert fwhm == pytest.approx(2.0 * 1.8954942670339809 / DELTA_OMEGA, rel=0.15)


def pump_state(default_state, pump, waist, shift):
    """The default state with a Gaussian, hg1 or shifted-Gaussian pump (waist, shift in m)."""
    grid = default_state.spatial.grid
    amplitude = {"gaussian": lambda: bp.gaussian_amplitude(grid, waist),
                 "hg1": lambda: bp.hermite_gauss1_amplitude(grid, waist),
                 "shifted": lambda: bp.gaussian_amplitude(grid, waist, center=shift)}[pump]()
    return bp.TwoPhotonState(bp.CorrelatedPump(amplitude), default_state.spectral,
                             default_state.pump_frequency)


def outcome(call):
    """A call's result, or the class and message of the error it raises."""
    try:
        return call()
    except Exception as exc:  # the error itself is compared
        return type(exc), str(exc)


class TestReport:
    def test_default_balanced_report(self, scan_mzi_fine):
        rep = bp.report(scan_mzi_fine.tau, scan_mzi_fine.singles_port1, scan_mzi_fine.coincidences)
        assert rep.v1 >= 0.99
        assert rep.v12 >= 0.99
        assert rep.complementarity_sum >= 1.9
        assert rep.fringe_period_singles == pytest.approx(SINGLES_PERIOD, rel=0.01)
        assert rep.fringe_period_coincidence == pytest.approx(COINCIDENCE_PERIOD, rel=0.01)
        assert rep.hom_fwhm is not None
        half = 3.0 * rep.fringe_period_singles
        assert rep.window == pytest.approx((-half, half))

    def test_default_unbalanced_report(self, scan_mzim_fine):
        rep = bp.report(scan_mzim_fine.tau, scan_mzim_fine.singles_port1,
                        scan_mzim_fine.coincidences)
        assert rep.v1 <= 0.02
        assert rep.v12 >= 0.99
        assert rep.complementarity_sum <= 1.05
        assert rep.fringe_period_singles is None
        assert rep.fringe_period_coincidence == pytest.approx(COINCIDENCE_PERIOD, rel=0.01)

    def test_explicit_window(self, scan_mzi_fine):
        rep = bp.report(scan_mzi_fine.tau, scan_mzi_fine.singles_port1,
                        scan_mzi_fine.coincidences,
                        window=(-20e-15, 20e-15))
        assert rep.window == (-20e-15, 20e-15)
        assert rep.v1 >= 0.99

    @pytest.mark.parametrize("start, stop, centre", [
        (100e-15, 300e-15, 100e-15), (-300e-15, -100e-15, -100e-15)], ids=["after", "before"])
    @pytest.mark.parametrize("kind", ["mzi", "mzim"])
    def test_default_window_on_a_scan_without_zero(self, default_state, kind, start, stop,
                                                   centre):
        # centred on the scan's end nearer zero; a window centred on zero held
        # no sample and raised "window contains no samples"
        cfg = bp.InterferometerConfig(kind)
        gram = bp.scan(default_state, cfg, start, stop, 0.08e-15)
        rep = bp.report(gram.tau, gram.singles_port1, gram.coincidences)
        lo, hi = rep.window
        assert (lo + hi) / 2.0 == pytest.approx(centre, rel=1e-12)
        assert np.any((gram.tau >= lo) & (gram.tau <= hi))

    def test_zero_signal_propagates(self):
        taus = np.arange(0.0, 10e-15, 0.1e-15)
        zeros = np.zeros_like(taus)
        with pytest.raises(BiphotonError, match="maximum rate must be positive"):
            bp.report(taus, zeros, zeros)

    @pytest.mark.parametrize("count", [5001, 5000], ids=["odd", "even"])
    @pytest.mark.parametrize("scan_name", ["scan_mzi_fine", "scan_mzim_fine"])
    def test_one_fft_equals_the_estimators(self, request, scan_name, count):
        # report takes one rfft over stacked rows; each number must equal
        # what fringe_period and hom_dip_fwhm give on their own, bit for bit
        gram = request.getfixturevalue(scan_name)
        tau, s, c = gram.tau[:count], gram.singles_port1[:count], gram.coincidences[:count]
        rep = bp.report(tau, s, c)
        for trace, period in ((s, rep.fringe_period_singles), (c, rep.fringe_period_coincidence)):
            if period is None:
                with pytest.raises(NoFringe):
                    bp.fringe_period(trace, tau, FLATNESS_FRINGE_FLOOR, 4)
            else:
                assert period == bp.fringe_period(trace, tau, FLATNESS_FRINGE_FLOOR, 4)
        assert rep.fringe_period_coincidence is not None and rep.hom_fwhm is not None
        assert rep.hom_fwhm == bp.hom_dip_fwhm(c, tau, 2.0 * math.pi / rep.fringe_period_coincidence)

    # reports reads k row pairs off one rfft and one irfft; each report must
    # be the one report gives its pair, and each error the first one the k
    # report calls raise
    @staticmethod
    def grams(default_state, tau_start, tau_stop, picks):
        return [bp.scan(pump_state(default_state, pump, waist, shift),
                        bp.InterferometerConfig(kind), tau_start, tau_stop, 0.08e-15)
                for pump, kind, waist, shift in picks]

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.tuples(st.sampled_from(["gaussian", "hg1", "shifted"]),
                                    st.sampled_from([bp.MZI, bp.MZIM]),
                                    st.floats(0.8e-3, 1.2e-3), st.floats(0.2e-3, 0.7e-3)),
                          min_size=1, max_size=3),
           start=st.integers(-2500, 1250), count=st.integers(200, 2501),
           window=st.none() | st.tuples(st.floats(-200.0, 300.0), st.floats(0.5, 100.0)))
    def test_batched_rows_equal_one_report_each(self, default_state, picks, start, count,
                                                window):
        # odd and even lengths; a scan past ~100 fs holds no dip, an MZIM
        # singles trace no fringe at the report floor, and a window may hold
        # no sample, which both calls must refuse alike
        tau_start = start * 0.08e-15
        grams = self.grams(default_state, tau_start, tau_start + (count - 1) * 0.08e-15, picks)
        tau = grams[0].tau
        assert tau.size == count
        if window is not None:
            window = ((window[0] - window[1]) * 1e-15, (window[0] + window[1]) * 1e-15)
        singles = [gram.singles_port1 for gram in grams]
        coincidences = [gram.coincidences for gram in grams]
        # VisibilityReport's == compares field by field: == on floats, None to None
        assert outcome(lambda: reports(tau, singles, coincidences, window)) == outcome(
            lambda: [bp.report(tau, s, c, window) for s, c in zip(singles, coincidences)])

    @pytest.mark.parametrize("tau_start, tau_stop", [(-200e-15, 200e-15), (100e-15, 300e-15)],
                             ids=["dip", "off_zero"])
    def test_absent_fields(self, default_state, tau_start, tau_stop):
        # an MZIM singles trace has no fringe at the report floor, a scan off
        # zero no dip, and a flat pair neither fringe, so its coincidences
        # stay out of the irfft
        grams = self.grams(default_state, tau_start, tau_stop,
                           [("gaussian", kind, 1e-3, 0.0) for kind in (bp.MZI, bp.MZIM)])
        tau = grams[0].tau
        singles = [gram.singles_port1 for gram in grams] + [np.ones(tau.size)]
        coincidences = [gram.coincidences for gram in grams] + [np.ones(tau.size)]
        got = reports(tau, singles, coincidences)
        assert got == [bp.report(tau, s, c) for s, c in zip(singles, coincidences)]
        mzi, mzim, flat = got
        assert mzi.fringe_period_singles is not None and mzim.fringe_period_singles is None
        assert (mzi.hom_fwhm is None) == (mzim.hom_fwhm is None) == (tau_start > 0.0)
        assert (flat.fringe_period_singles, flat.fringe_period_coincidence,
                flat.hom_fwhm) == (None, None, None)

    def test_counts_must_agree(self, scan_mzi_fine):
        g = scan_mzi_fine
        with pytest.raises(BiphotonError, match="singles_rows and coincidence_rows differ "
                                                "in count: 2 and 1"):
            reports(g.tau, [g.singles_port1] * 2, [g.coincidences])

    def test_no_rows(self, scan_mzi_fine):
        with pytest.raises(BiphotonError, match="singles_rows and coincidence_rows hold no rows"):
            reports(scan_mzi_fine.tau, [], [])

    @pytest.mark.parametrize("which", ["singles", "coincidence"])
    def test_row_length_must_be_taus(self, scan_mzi_fine, which):
        g = scan_mzi_fine
        rows = {"singles": [g.singles_port1] * 2, "coincidence": [g.coincidences] * 2}
        rows[which][1] = rows[which][1][:-1]
        with pytest.raises(BiphotonError, match=rf"{which}_rows\[1\] and delay grid differ "
                                                rf"in length: shape \(5000,\) against \(5001,\)"):
            reports(g.tau, rows["singles"], rows["coincidence"])

    def test_every_row_is_checked_before_the_transform(self, scan_mzi_fine, monkeypatch):
        # row 0 would raise "maximum rate must be positive" after the
        # transform; row 1's oversized coincidences are refused first
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before every row was checked")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        tau, zeros = scan_mzi_fine.tau, np.zeros(scan_mzi_fine.tau.size)
        with pytest.raises(BiphotonError, match=r"the coincidence_rows\[1\] rates must be finite"):
            reports(tau, [zeros, zeros], [zeros, np.full(tau.size, 1e308)])

    def test_later_errors_come_in_row_order(self):
        # a zero pair fails its visibility, a fringe of three samples per
        # period its period; whichever row comes first raises, as from
        # sequential report calls
        tau = np.arange(300) * 0.1e-15
        zeros, fast = np.zeros(tau.size), 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(300) / 3.0)
        with pytest.raises(BiphotonError, match="maximum rate must be positive"):
            reports(tau, [zeros, fast], [zeros, fast])
        with pytest.raises(BiphotonError, match="spans fewer than 4 samples"):
            reports(tau, [fast, zeros], [fast, zeros])

    @pytest.mark.parametrize("window", [
        (5e-15, -5e-15), (math.nan, 1e-15), (-1e-15, math.nan), (1e-15, 1e-15),
        (1e-15,), ("a", "b"),
    ], ids=["reversed", "nan_lo", "nan_hi", "empty", "one_bound", "strings"])
    def test_bad_window_is_refused_before_the_transform(self, scan_mzi_fine, monkeypatch,
                                                        window):
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before the window was checked")

        monkeypatch.setattr(np.fft, "rfft", no_transform)
        g = scan_mzi_fine
        with pytest.raises(ValueError, match=r"^window .*" + re.escape(repr(window))):
            bp.report(g.tau, g.singles_port1, g.coincidences, window=window)

    def test_infinite_window_bounds_are_accepted(self, scan_mzi_fine):
        g = scan_mzi_fine
        whole = bp.report(g.tau, g.singles_port1, g.coincidences, window=(g.tau[0], g.tau[-1]))
        unbounded = bp.report(g.tau, g.singles_port1, g.coincidences,
                              window=(-math.inf, math.inf))
        assert unbounded.window == (-math.inf, math.inf)
        assert (unbounded.v1, unbounded.v12) == (whole.v1, whole.v12)


class TestNanDelay:
    """A NaN delay fails the uniform-grid check of every estimator (tier-1
    runs with warnings as errors, so none may warn first)."""

    @pytest.mark.parametrize("index", [0, 1000, -1], ids=["first", "middle", "last"])
    def test_estimators_raise(self, scan_mzi_fine, index):
        tau = scan_mzi_fine.tau.copy()
        tau[index] = math.nan
        s, c = scan_mzi_fine.singles_port1, scan_mzi_fine.coincidences
        with pytest.raises(ValueError, match="uniform and increasing"):
            bp.fringe_period(s, tau)
        with pytest.raises(ValueError, match="uniform and increasing"):
            bp.hom_dip_fwhm(c, tau, OMEGA_P)
        with pytest.raises(ValueError, match="uniform and increasing"):
            bp.report(tau, s, s)

    @pytest.mark.parametrize("index", [1000, -1], ids=["middle", "last"])
    def test_infinite_delay_raises(self, scan_mzi_fine, index):
        # the slack for printed delays grows with max|tau|; an infinite one fails
        tau = scan_mzi_fine.tau.copy()
        tau[index] = math.inf
        with pytest.raises(ValueError, match="uniform and increasing"):
            bp.fringe_period(scan_mzi_fine.singles_port1, tau)


class TestNonFiniteSpectrum:
    """Rates near the float limit would overflow the windowed FFT: every
    estimator raises instead of returning NaN."""

    taus = np.arange(50) * 0.1e-15
    flat = np.full(50, 1e308)

    def test_report_raises(self):
        with pytest.raises(BiphotonError, match="singles"):
            bp.report(self.taus, self.flat, self.flat, window=(0.0, 1e-15))

    def test_overflowing_coincidences_named(self):
        singles = 1.0 + 0.5 * np.cos(2.0 * np.pi * self.taus / 1e-15)
        with pytest.raises(BiphotonError, match="coincidence"):
            bp.report(self.taus, singles, self.flat)

    @pytest.mark.parametrize("value", [1e308, 1e306, math.nan, math.inf])
    def test_estimators_raise(self, value):
        trace = np.full(50, 1.0)
        trace[7] = value
        with pytest.raises(BiphotonError, match="samples"):
            bp.fringe_period(trace, self.taus)
        with pytest.raises(BiphotonError, match="samples"):
            bp.hom_dip_fwhm(trace, self.taus, 2.0 * np.pi / 1e-15)

    @pytest.mark.parametrize("field", ["fringe_period_singles", "fringe_period_coincidence",
                                       "hom_fwhm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_report_fields_must_be_finite(self, field, value):
        fields = dict(v1=0.5, v12=0.5, complementarity_sum=0.5, window=(-1.0, 1.0),
                      fringe_period_singles=1.0, fringe_period_coincidence=1.0, hom_fwhm=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            bp.VisibilityReport(**fields)
