"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

import biphoton as bp

from conftest import COINCIDENCE_PERIOD, DELTA_OMEGA, OMEGA_P, SINGLES_PERIOD, on_frequency_grid
from dense_reference import to_dense

STEP = 0.2e-15
HALF = 200e-15


def announce(number, message):
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


@pytest.fixture(scope="module")
def coarse_scans(default_state, cfg_mzi, cfg_mzim):
    """The criterion-1/2/3 scan: +-200 fs at 0.2 fs, closed form."""
    mzi = bp.scan(default_state, cfg_mzi, -HALF, HALF, STEP)
    mzim = bp.scan(default_state, cfg_mzim, -HALF, HALF, STEP)
    return mzi, mzim


@pytest.fixture(scope="module")
def oracle_taus():
    return np.linspace(-300e-15, 300e-15, 200)


def oracle_rates(state, cfg, taus):
    initial = bp.build_initial_state(state)
    singles, coincidences = [], []
    for tau in taus:
        final = bp.apply_pipeline(initial, bp.build_pipeline(cfg, tau))
        singles.append(bp.singles_rate(final, 1))
        coincidences.append(bp.coincidence_rate(final))
    return np.array(singles), np.array(coincidences)


def pump_line(trace, taus):
    """Complex amplitude of the dominant line near the pump frequency."""
    step = taus[1] - taus[0]
    window = np.hanning(trace.size)
    spectrum = np.fft.rfft((trace - trace.mean()) * window)
    freqs = 2.0 * math.pi * np.fft.rfftfreq(trace.size, d=step)
    band = np.where((freqs > 0.8 * OMEGA_P) & (freqs < 1.2 * OMEGA_P))[0]
    k = band[np.argmax(np.abs(spectrum[band]))]
    return spectrum[k]


def test_criterion_01_mzi_singles_visibility(default_state, cfg_mzi):
    start = time.perf_counter()
    gram = bp.scan(default_state, cfg_mzi, -HALF, HALF, STEP)
    elapsed = time.perf_counter() - start
    v1 = bp.visibility(gram.singles_port1)
    assert v1 >= 0.99
    assert elapsed < 5.0
    announce(1, f"MZI singles visibility V1={v1:.6f} >= 0.99 "
                f"(closed form, {elapsed:.2f} s < 5 s)")


def test_criterion_02_mzim_singles_flatness(default_state, cfg_mzim, coarse_scans):
    _, mzim = coarse_scans
    v1 = bp.visibility(mzim.singles_port1)
    assert v1 <= 0.02

    fine_grid = bp.default_spatial_grid(point_count=513)
    fine_state = bp.default_spdc_state(spatial_grid=fine_grid)
    fine_scan = bp.scan(fine_state, cfg_mzim, -HALF, HALF, STEP)
    v1_fine = bp.visibility(fine_scan.singles_port1)
    ratio = v1_fine / v1
    assert ratio == pytest.approx(0.5, abs=0.05)
    announce(2, f"MZIM singles flatness V1={v1:.5f} <= 0.02; halving the grid "
                f"spacing scales it by {ratio:.4f}")


def test_criterion_03_coincidence_invariance(coarse_scans, default_state,
                                             cfg_mzi, cfg_mzim, oracle_taus):
    mzi, mzim = coarse_scans
    closed_delta = float(np.max(np.abs(mzi.coincidences - mzim.coincidences)))
    assert closed_delta <= 1e-9

    _, cc_mzi = oracle_rates(default_state, cfg_mzi, oracle_taus)
    _, cc_mzim = oracle_rates(default_state, cfg_mzim, oracle_taus)
    oracle_delta = float(np.max(np.abs(cc_mzi - cc_mzim)))
    assert oracle_delta <= 1e-6

    v12_mzi = bp.visibility(mzi.coincidences)
    v12_mzim = bp.visibility(mzim.coincidences)
    assert v12_mzi >= 0.99
    assert v12_mzim >= 0.99
    announce(3, f"coincidences invariant: closed max|d|={closed_delta:.2e} <= 1e-9, "
                f"oracle max|d|={oracle_delta:.2e} <= 1e-6; "
                f"V12=({v12_mzi:.4f}, {v12_mzim:.4f}) >= 0.99")


def test_criterion_04_fringe_frequency_doubling(default_state, cfg_mzi):
    gram = bp.scan(default_state, cfg_mzi, -50e-15, 50e-15, 0.05e-15)
    period_singles = bp.fringe_period(gram.singles_port1, gram.tau)
    period_coinc = bp.fringe_period(gram.coincidences, gram.tau)
    ratio = period_coinc / period_singles
    assert ratio == pytest.approx(0.500, abs=0.005)
    assert period_singles == pytest.approx(SINGLES_PERIOD, rel=0.01)
    assert period_coinc == pytest.approx(COINCIDENCE_PERIOD, rel=0.01)
    assert period_singles == pytest.approx(2.702e-15, rel=0.01)
    assert period_coinc == pytest.approx(1.351e-15, rel=0.01)
    announce(4, f"fringe periods {period_singles * 1e15:.4f} fs (singles) / "
                f"{period_coinc * 1e15:.4f} fs (coincidence), ratio {ratio:.4f}")


def test_criterion_05_oracle_equivalence(default_state, cfg_mzi, cfg_mzim, oracle_taus):
    start = time.perf_counter()
    worst = 0.0
    for cfg in (cfg_mzi, cfg_mzim):
        s_oracle, c_oracle = oracle_rates(default_state, cfg, oracle_taus)
        s_closed, _, c_closed = bp.rates(default_state, cfg, oracle_taus)
        worst = max(worst,
                    float(np.max(np.abs(s_oracle - s_closed))),
                    float(np.max(np.abs(c_oracle - c_closed))))
    assert worst <= 1e-6

    # branch-sum vs dense representation on the small cross-check grids
    small_sgrid = bp.SpatialGrid(half_width=3e-3, point_count=9)
    small_fgrid = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=17)
    small_state = on_frequency_grid(bp.default_spdc_state(spatial_grid=small_sgrid), small_fgrid)
    built = bp.build_initial_state(small_state)
    dense_worst = 0.0
    for cfg in (cfg_mzi, cfg_mzim):
        for tau in (0.0, 27e-15, 140e-15):
            elements = bp.build_pipeline(cfg, tau)
            branch = bp.apply_pipeline(built, elements)
            dense = bp.apply_pipeline(to_dense(built), elements)
            dense_worst = max(
                dense_worst,
                abs(bp.coincidence_rate(branch) - bp.coincidence_rate(dense)),
                abs(bp.singles_rate(branch, 1) - bp.singles_rate(dense, 1)))
    elapsed = time.perf_counter() - start
    assert dense_worst <= 1e-12
    assert elapsed < 60.0
    announce(5, f"engines agree: closed-vs-oracle max|d|={worst:.2e} <= 1e-6, "
                f"branch-vs-dense max|d|={dense_worst:.2e} <= 1e-12 "
                f"({elapsed:.1f} s < 60 s)")


def test_criterion_06_odd_pump_parity(odd_state):
    cfg_mzi = bp.InterferometerConfig.mzi()
    cfg_mzim = bp.InterferometerConfig.mzim()

    def check(tag, taus, trace_mzi, trace_mzim):
        line_mzi = pump_line(trace_mzi, taus)
        line_mzim = pump_line(trace_mzim, taus)
        ratio = abs(line_mzim) / abs(line_mzi)
        shift = abs(np.angle(line_mzim / line_mzi))
        assert ratio == pytest.approx(1.000, abs=0.001), tag
        assert shift == pytest.approx(math.pi, abs=1e-3), tag
        return ratio, shift

    closed_mzi = bp.scan(odd_state, cfg_mzi, -HALF, HALF, 0.08e-15)
    closed_mzim = bp.scan(odd_state, cfg_mzim, -HALF, HALF, 0.08e-15)
    ratio_c, shift_c = check("closed", closed_mzi.tau,
                             closed_mzi.coincidences, closed_mzim.coincidences)

    oracle_mzi = bp.oracle_scan(odd_state, cfg_mzi, -60e-15, 60e-15, 0.2e-15)
    oracle_mzim = bp.oracle_scan(odd_state, cfg_mzim, -60e-15, 60e-15, 0.2e-15)
    ratio_o, shift_o = check("oracle", oracle_mzi.tau,
                             oracle_mzi.coincidences, oracle_mzim.coincidences)
    announce(6, f"odd pump: sinusoid amplitude ratio {ratio_c:.5f} (closed) / "
                f"{ratio_o:.5f} (oracle), phase shift {shift_c:.5f} / {shift_o:.5f} rad")


def test_criterion_07_bandwidth_reciprocity(default_state, sgrid):
    def dip_fwhm(width_scale):
        density = bp.SpectralDensity(bp.Rectangular(width_scale * DELTA_OMEGA))
        state = bp.TwoPhotonState(default_state.spatial,
                                  bp.AntiCorrelated(density, bp.default_frequency_grid(density)),
                                  OMEGA_P)
        cfg = bp.InterferometerConfig.mzi()
        gram = bp.scan(state, cfg, -250e-15, 250e-15, 0.08e-15)
        return bp.hom_dip_fwhm(gram.coincidences, gram.tau, OMEGA_P)

    def first_zero(width_scale):
        width = width_scale * DELTA_OMEGA
        density = bp.SpectralDensity(bp.Rectangular(width))
        grid = bp.default_frequency_grid(density)
        env = bp.EnvelopeEvaluator(bp.normalize(density, grid), grid)
        # march outward to bracket the first sign change, then bisect
        step = 0.05 * 2.0 * math.pi / width
        lo = step
        while env.first_order(lo + step) > 0.0:
            lo += step
            assert lo < 1e-12, "no envelope zero found"
        hi = lo + step
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if env.first_order(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    fwhm_ratio = dip_fwhm(1.0) / dip_fwhm(2.0)
    zero_ratio = first_zero(1.0) / first_zero(2.0)
    assert fwhm_ratio == pytest.approx(2.0, rel=0.05)
    assert zero_ratio == pytest.approx(2.0, rel=0.05)
    announce(7, f"doubling the bandwidth halves the dip width (ratio {fwhm_ratio:.4f}) "
                f"and the envelope first zero (ratio {zero_ratio:.4f})")


def test_criterion_08_hom_dip_zero(default_state, cfg_mzi, cfg_mzim):
    closed_mzi = bp.rates(default_state, cfg_mzi, 0.0)[2]
    closed_mzim = bp.rates(default_state, cfg_mzim, 0.0)[2]
    initial = bp.build_initial_state(default_state)
    oracle_mzi = bp.coincidence_rate(
        bp.apply_pipeline(initial, bp.build_pipeline(cfg_mzi, 0.0)))
    oracle_mzim = bp.coincidence_rate(
        bp.apply_pipeline(initial, bp.build_pipeline(cfg_mzim, 0.0)))
    values = (closed_mzi, closed_mzim, oracle_mzi, oracle_mzim)
    assert all(abs(v) <= 1e-6 for v in values)
    announce(8, "zero-delay coincidences vanish: "
                + ", ".join(f"{v:.1e}" for v in values))


def test_criterion_09_spatial_sector_independence(default_state, odd_state,
                                                  sgrid, cfg_mzi):
    gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
    coherent_state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                       default_state.spectral, OMEGA_P)
    taus = np.linspace(-150e-15, 150e-15, 151)

    ref_singles, _, ref_coinc = bp.rates(default_state, cfg_mzi, taus)
    for state in (coherent_state, odd_state):
        singles, _, coinc = bp.rates(state, cfg_mzi, taus)
        assert np.array_equal(singles, ref_singles)
        assert np.array_equal(coinc, ref_coinc)

    oracle_worst = 0.0
    sample_taus = taus[::25]
    reference = None
    for state in (default_state, coherent_state, odd_state):
        initial = bp.build_initial_state(state)
        rates = []
        for tau in sample_taus:
            final = bp.apply_pipeline(initial, bp.build_pipeline(cfg_mzi, tau))
            rates.append((bp.coincidence_rate(final), bp.singles_rate(final, 1)))
        rates = np.array(rates)
        if reference is None:
            reference = rates
        else:
            oracle_worst = max(oracle_worst, float(np.max(np.abs(rates - reference))))
    assert oracle_worst <= 1e-9
    announce(9, f"MZI rates ignore the spatial sector: closed exact, "
                f"oracle max|d|={oracle_worst:.2e} <= 1e-9")


def test_criterion_10_complementarity_diagnostic(scan_mzi_fine, scan_mzim_fine):
    rep_mzi = bp.report(scan_mzi_fine.tau, scan_mzi_fine.singles_port1, scan_mzi_fine.coincidences)
    rep_mzim = bp.report(scan_mzim_fine.tau, scan_mzim_fine.singles_port1,
                         scan_mzim_fine.coincidences)
    assert rep_mzi.complementarity_sum >= 1.9
    assert rep_mzim.complementarity_sum <= 1.05
    announce(10, f"complementarity diagnostic: MZI v1^2+v12^2="
                 f"{rep_mzi.complementarity_sum:.4f} >= 1.9, "
                 f"MZIM {rep_mzim.complementarity_sum:.4f} <= 1.05")
