import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biphoton as bp
from biphoton import modesim
from biphoton.cli import build_problem, bundled_config_path, load_config
from biphoton.errors import (
    BudgetExceeded,
    GridAsymmetry,
    IncompletePipeline,
    UnderSampled,
    UnknownElement,
)
from biphoton.modesim import (
    CONJUGATE,
    SYMMETRIC,
    _distinct_rows,
    _photon_map,
    _rates,
    exchange_asymmetry,
)
from biphoton.spectral import chirp_z

from conftest import DELTA_OMEGA, OMEGA_P


@pytest.fixture(scope="module")
def small_grids():
    sgrid = bp.SpatialGrid(half_width=3e-3, point_count=9)
    fgrid = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=17)
    return sgrid, fgrid


@pytest.fixture(scope="module")
def small_state(small_grids):
    sgrid, _ = small_grids
    return bp.default_spdc_state(spatial_grid=sgrid)


@pytest.fixture(scope="session")
def initial(default_state, fgrid):
    return bp.build_initial_state(default_state, fgrid)


def run(initial_state, cfg, tau, convention=SYMMETRIC):
    return bp.apply_pipeline(initial_state, bp.build_pipeline(cfg, tau, convention))


ARM_ASSIGNMENTS = [(delay_arm, flip_arm) for delay_arm in "ab" for flip_arm in "ab"]


def arm_pipeline(kind, tau, convention, delay_arm, flip_arm):
    """The instrument's elements with the delay and the MZIM's flip on the given arms."""
    elements = [bp.BeamSplitter(convention), bp.Delay(delay_arm, tau, OMEGA_P)]
    if kind == bp.MZIM:
        elements.append(bp.SpatialFlip(flip_arm))
    return elements + [bp.BeamSplitter(convention), bp.RelabelOutputs()]


@pytest.fixture(scope="module")
def interpreters(small_state, small_grids):
    """Each interpreter of an element list: branch sum and dense tensor."""
    _, fgrid = small_grids
    built = bp.build_initial_state(small_state, fgrid)
    return (
        lambda elements: bp.apply_pipeline(built, elements),
        lambda elements: bp.apply_pipeline(bp.to_dense(built), elements),
    )


def random_factor(kind, rng):
    from biphoton.modesim import Factor

    if kind == "full":
        return Factor.full(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
    vec = rng.normal(size=7) + 1j * rng.normal(size=7)
    return Factor.diagonal(vec) if kind == "diag" else Factor.antidiagonal(vec)


class TestFactorAlgebra:
    @pytest.mark.parametrize("kind_a", ["diag", "antidiag", "full"])
    @pytest.mark.parametrize("kind_b", ["diag", "antidiag", "full"])
    def test_inner_products_match_dense(self, kind_a, kind_b):
        rng = np.random.default_rng(13)
        a, b = random_factor(kind_a, rng), random_factor(kind_b, rng)
        expected = complex(np.vdot(a.to_full(), b.to_full()))
        assert a.inner(b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind_a", ["diag", "antidiag", "full"])
    @pytest.mark.parametrize("kind_b", ["diag", "antidiag", "full"])
    def test_inner_terms_sit_at_their_indices(self, kind_a, kind_b):
        rng = np.random.default_rng(19)
        a, b = random_factor(kind_a, rng), random_factor(kind_b, rng)
        terms, n0, n1 = a.inner_terms(b)
        placed = np.zeros((7, 7), dtype=complex)
        np.add.at(placed, (n0 + 3, n1 + 3), terms)
        assert np.allclose(placed, np.conj(a.to_full()) * b.to_full(), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["diag", "antidiag", "full"])
    def test_slot_operations_match_dense(self, kind):
        from biphoton.modesim import Factor

        rng = np.random.default_rng(17)
        if kind == "full":
            factor = Factor.full(rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        else:
            vec = rng.normal(size=7) + 1j * rng.normal(size=7)
            factor = Factor.diagonal(vec) if kind == "diag" else Factor.antidiagonal(vec)
        phases = np.exp(1j * rng.normal(size=7))
        dense = factor.to_full()
        for slot in (0, 1):
            flipped = factor.flip_slot(slot).to_full()
            expected = dense[::-1, :] if slot == 0 else dense[:, ::-1]
            assert np.allclose(flipped, expected, atol=1e-15)
            scaled = factor.scale_slot(slot, phases).to_full()
            expected = dense * (phases[:, None] if slot == 0 else phases[None, :])
            assert np.allclose(scaled, expected, atol=1e-15)
        assert np.allclose(factor.transpose().to_full(), dense.T, atol=1e-15)


class TestBuildInitialState:
    def test_default_state_single_branch_unit_norm(self, initial):
        assert len(initial.branches) == 1
        assert bp.total_norm(initial) == pytest.approx(1.0, abs=1e-9)
        branch = initial.branches[0]
        assert (branch.path1, branch.path2) == ("a", "a")
        assert branch.spatial.kind == "diag"
        assert branch.spectral.kind == "antidiag"

    def test_general_spatial_becomes_full_factor(self, default_state, sgrid, fgrid):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                  default_state.spectral, OMEGA_P)
        built = bp.build_initial_state(state, fgrid)
        assert built.branches[0].spatial.kind == "full"
        assert bp.total_norm(built) == pytest.approx(1.0, abs=1e-9)

    def test_matches_explicit_dense_construction(self, small_state, small_grids):
        sgrid, fgrid = small_grids
        built = bp.to_dense(bp.build_initial_state(small_state, fgrid))

        # independent dense construction straight from the discretization
        n, m = sgrid.point_count, fgrid.point_count
        phi = small_state.spatial.pump.values
        density = bp.normalize(small_state.spectral.density, fgrid).sample(fgrid)
        w = np.full(m, fgrid.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        psi = np.sqrt(density * w)
        expected = np.zeros((2, n, m, 2, n, m), dtype=complex)
        for i in range(n):
            for k in range(m):
                expected[0, i, k, 0, i, m - 1 - k] = (
                    phi[i] * math.sqrt(sgrid.spacing) * psi[k])
        assert float(np.max(np.abs(built.tensor - expected))) < 1e-12


class TestPhotonMap:
    """The single-photon element map against expectations written out by hand."""

    @staticmethod
    def plain_move(outcomes, path):
        """One outcome: to ``path``, amplitude one, no flip, no phases."""
        (o,) = outcomes
        return (o.path, o.amplitude, o.flip, o.phases) == (path, 1.0, False, None)

    @pytest.mark.parametrize("convention, cross", [(SYMMETRIC, 1j), (CONJUGATE, -1j)])
    def test_beam_splitter_amplitudes(self, fgrid, convention, cross):
        photon, relabeled = _photon_map(bp.BeamSplitter(convention), fgrid, False)
        r = 1.0 / math.sqrt(2.0)
        expected = {"a": [("a", r), ("b", cross * r)], "b": [("a", cross * r), ("b", r)]}
        assert not relabeled
        assert sorted(photon) == ["a", "b"]
        for path, outcomes in photon.items():
            assert [o.path for o in outcomes] == [q for q, _ in expected[path]]
            for o, (_, amplitude) in zip(outcomes, expected[path]):
                assert o.amplitude == pytest.approx(amplitude, abs=1e-15)
                assert not o.flip and o.phases is None

    @pytest.mark.parametrize("arm, other", [("a", "b"), ("b", "a")])
    def test_delay_phase_on_delay_arm_only(self, fgrid, arm, other):
        tau = 37e-15
        photon, relabeled = _photon_map(bp.Delay(arm, tau, OMEGA_P), fgrid, False)
        assert not relabeled
        assert self.plain_move(photon[other], other)
        (o,) = photon[arm]
        assert (o.path, o.amplitude, o.flip) == (arm, 1.0, False)
        expected = [cmath.exp(-1j * (OMEGA_P / 2.0 + w) * tau) for w in fgrid.omegas()]
        assert np.allclose(o.phases, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("arm, other", [("a", "b"), ("b", "a")])
    def test_flip_on_flip_arm_only(self, fgrid, arm, other):
        photon, relabeled = _photon_map(bp.SpatialFlip(arm), fgrid, False)
        assert not relabeled
        assert self.plain_move(photon[other], other)
        (o,) = photon[arm]
        assert (o.path, o.amplitude, o.flip, o.phases) == (arm, 1.0, True, None)

    def test_relabel_routes_a_to_c_and_b_to_d(self, fgrid):
        photon, relabeled = _photon_map(bp.RelabelOutputs(), fgrid, False)
        assert relabeled
        assert self.plain_move(photon["a"], "c")
        assert self.plain_move(photon["b"], "d")


class TestElementSemantics:
    def test_double_beam_splitter_routes_to_one_port(self, initial, fgrid):
        # BS followed immediately by BS is the identity up to relabelling:
        # everything exits one port, coincidences vanish.
        elements = [bp.BeamSplitter(), bp.BeamSplitter(), bp.RelabelOutputs()]
        final = bp.apply_pipeline(initial, elements)
        assert bp.coincidence_rate(final) == pytest.approx(0.0, abs=1e-12)
        assert bp.singles_rate(final, "d") == pytest.approx(2.0, abs=1e-12)
        assert bp.singles_rate(final, "c") == pytest.approx(0.0, abs=1e-12)
        assert bp.total_norm(final) == pytest.approx(1.0, abs=1e-12)

    def test_delay_on_unoccupied_arm_is_identity(self, initial):
        delayed = bp.apply_element(initial, bp.Delay("b", 40e-15, OMEGA_P))
        assert len(delayed.branches) == 1
        b0, b1 = initial.branches[0], delayed.branches[0]
        assert np.array_equal(b0.spectral.data, b1.spectral.data)
        assert np.array_equal(b0.spatial.data, b1.spatial.data)

    def test_flip_of_even_correlated_branch_is_identity(self, initial):
        flipped = bp.apply_element(initial, bp.SpatialFlip("a"))
        b0, b1 = initial.branches[0], flipped.branches[0]
        dense0 = b0.spatial.to_full()
        dense1 = b1.spatial.to_full()
        assert float(np.max(np.abs(dense0 - dense1))) < 1e-12

    def test_norm_preserved_after_each_element(self, initial, cfg_mzim):
        state = initial
        for element in bp.build_pipeline(cfg_mzim, 37e-15):
            state = bp.apply_element(state, element)
            assert bp.total_norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_branch_count_capped(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            state = initial
            for element in bp.build_pipeline(cfg, 21e-15):
                state = bp.apply_element(state, element)
                assert len(state.branches) <= 16

    def test_exchange_symmetry_preserved_dense(self, small_state, small_grids, cfg_mzim):
        # The dense representation supports a direct, cancellation-free
        # asymmetry check at the 1e-12 scale, element by element.
        _, fgrid = small_grids
        state = bp.to_dense(bp.build_initial_state(small_state, fgrid))
        assert exchange_asymmetry(state) < 1e-12
        for element in bp.build_pipeline(cfg_mzim, 33e-15):
            state = bp.apply_element(state, element)
            assert exchange_asymmetry(state) < 1e-12
            assert bp.total_norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_exchange_symmetry_branch_diagnostic(self, initial, cfg_mzim):
        # The branch-sum asymmetry is a difference of cancelling unit-scale
        # norms, so its floating-point floor is ~1e-7, not 1e-12.
        final = run(initial, cfg_mzim, 29e-15)
        assert exchange_asymmetry(final) < 1e-6

    def test_unknown_element_rejected(self, interpreters):
        for interpret in interpreters:
            with pytest.raises(UnknownElement):
                interpret(["mirror"])

    def test_unknown_arm_rejected(self, interpreters):
        for element in (bp.Delay("c", 1e-15, OMEGA_P), bp.SpatialFlip("x")):
            for interpret in interpreters:
                with pytest.raises(ValueError):
                    interpret([bp.BeamSplitter(), element])

    def test_rates_require_relabelled_outputs(self, initial):
        incomplete = bp.apply_element(initial, bp.BeamSplitter())
        with pytest.raises(IncompletePipeline):
            bp.coincidence_rate(incomplete)
        with pytest.raises(IncompletePipeline):
            bp.singles_rate(incomplete, "c")

    def test_no_elements_after_relabel(self, interpreters):
        for late in (bp.BeamSplitter(), bp.RelabelOutputs()):
            for interpret in interpreters:
                with pytest.raises(IncompletePipeline):
                    interpret([bp.RelabelOutputs(), late])


class TestClosedFormEquivalence:
    TAUS = np.linspace(-300e-15, 300e-15, 200)

    def test_balanced_interferometer(self, default_state, cfg_mzi, initial, fgrid):
        expected_cc = bp.g2_mzi(default_state, cfg_mzi, self.TAUS, fgrid)
        expected_s1 = bp.intensity_mzi(default_state, cfg_mzi, self.TAUS, fgrid, port=1)
        worst_cc = worst_s1 = 0.0
        for tau, cc_ref, s1_ref in zip(self.TAUS, expected_cc, expected_s1):
            final = run(initial, cfg_mzi, tau)
            worst_cc = max(worst_cc, abs(bp.coincidence_rate(final) - cc_ref))
            worst_s1 = max(worst_s1, abs(bp.singles_rate(final, "c") - s1_ref))
        assert worst_cc <= 1e-6
        assert worst_s1 <= 1e-6

    def test_unbalanced_matches_balanced_for_even_pump(self, initial, cfg_mzi, cfg_mzim):
        worst = 0.0
        for tau in self.TAUS[::5]:
            a = bp.coincidence_rate(run(initial, cfg_mzi, tau))
            b = bp.coincidence_rate(run(initial, cfg_mzim, tau))
            worst = max(worst, abs(a - b))
        assert worst <= 1e-9

    def test_unbalanced_singles_match_flip_weighted_form(
            self, default_state, cfg_mzim, initial, fgrid):
        expected = bp.intensity_mzim(default_state, cfg_mzim, self.TAUS, fgrid, port=1)
        worst = 0.0
        for tau, ref in zip(self.TAUS, expected):
            final = run(initial, cfg_mzim, tau)
            worst = max(worst, abs(bp.singles_rate(final, "c") - ref))
        assert worst <= 1e-6

    def test_coherent_even_sector_gives_full_fringes(
            self, default_state, sgrid, fgrid, cfg_mzim):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                  default_state.spectral, OMEGA_P)
        built = bp.build_initial_state(state, fgrid)
        expected = bp.intensity_mzim(state, cfg_mzim, self.TAUS[::10], fgrid, port=1)
        for tau, ref in zip(self.TAUS[::10], expected):
            final = run(built, cfg_mzim, tau)
            assert bp.singles_rate(final, "c") == pytest.approx(ref, abs=1e-6)

    def test_zero_delay_full_dip(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            assert bp.coincidence_rate(run(initial, cfg, 0.0)) <= 1e-6


class TestParityCases:
    def test_odd_pump_coincidences(self, odd_state, fgrid, cfg_mzim):
        built = bp.build_initial_state(odd_state, fgrid)
        taus = np.linspace(-150e-15, 150e-15, 40)
        expected = bp.g2_mzim(odd_state, cfg_mzim, taus, fgrid)
        for tau, ref in zip(taus, expected):
            assert bp.coincidence_rate(run(built, cfg_mzim, tau)) == pytest.approx(
                ref, abs=1e-9)

    def test_arbitrary_pump_between_bounding_curves(self, default_state, sgrid, fgrid):
        # The simulator realises the amplitude reduction on its own: both
        # interference terms are weighted by the (real) pump parity
        # overlap, so the trace sits strictly between the even-pump curve
        # and the flat background.
        pump = bp.gaussian_amplitude(sgrid, waist=1e-3, center=1e-3)
        beta = bp.pump_parity_overlap(pump).as_complex().real
        assert 0.0 < beta < 1.0
        state = bp.TwoPhotonState(bp.CorrelatedPump(pump), default_state.spectral, OMEGA_P)
        built = bp.build_initial_state(state, fgrid)
        cfg = bp.InterferometerConfig.mzim(OMEGA_P)
        density = bp.normalize(default_state.spectral.density, fgrid)
        env = bp.EnvelopeEvaluator(density, fgrid)
        for tau in (0.0, 13e-15, 47e-15, 90e-15):
            value = bp.coincidence_rate(run(built, cfg, tau))
            interference = 0.5 * math.cos(OMEGA_P * tau) + 0.5 * env.second_order(tau)
            assert value == pytest.approx(1.0 - beta * interference, abs=1e-9)
            even_pump = 1.0 - interference
            background = 1.0
            lo, hi = sorted((even_pump, background))
            if abs(interference) > 1e-12:
                assert lo < value < hi

    def test_even_pump_fringe_versus_odd_pump_fringe(self, initial, odd_state, fgrid, cfg_mzim):
        built_odd = bp.build_initial_state(odd_state, fgrid)
        tau = 0.25 * 2.0 * math.pi / OMEGA_P
        even = bp.coincidence_rate(run(initial, cfg_mzim, tau))
        odd = bp.coincidence_rate(run(built_odd, cfg_mzim, tau))
        assert even + odd == pytest.approx(2.0, abs=1e-9)


class TestInvariances:
    def test_arm_assignment_independence(self, default_state, sgrid, fgrid, initial):
        taus = (11e-15, 60e-15)
        reference = None
        for delay_arm, flip_arm in ARM_ASSIGNMENTS:
            rates = []
            for tau in taus:
                final = bp.apply_pipeline(
                    initial, arm_pipeline(bp.MZIM, tau, SYMMETRIC, delay_arm, flip_arm))
                rates.append((bp.coincidence_rate(final),
                              bp.singles_rate(final, "c"),
                              bp.singles_rate(final, "d")))
            if reference is None:
                reference = rates
            else:
                for got, ref in zip(rates, reference):
                    assert np.allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("convention", [SYMMETRIC, CONJUGATE])
    @pytest.mark.parametrize("kind", [bp.MZI, bp.MZIM])
    def test_pipeline_puts_delay_and_flip_in_arm_b(self, kind, convention):
        cfg = bp.InterferometerConfig(kind, OMEGA_P)
        assert bp.build_pipeline(cfg, 13e-15, convention) == arm_pipeline(
            kind, 13e-15, convention, "b", "b")

    def test_beam_splitter_convention_independence(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            for tau in (0.0, 17e-15, 123e-15):
                a = run(initial, cfg, tau, convention=SYMMETRIC)
                b = run(initial, cfg, tau, convention=CONJUGATE)
                assert bp.coincidence_rate(a) == pytest.approx(
                    bp.coincidence_rate(b), abs=1e-9)
                for port in ("c", "d"):
                    assert bp.singles_rate(a, port) == pytest.approx(
                        bp.singles_rate(b, port), abs=1e-9)

    def test_spatial_sector_independence_in_balanced_instrument(
            self, default_state, odd_state, sgrid, fgrid, cfg_mzi):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        coherent = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                     default_state.spectral, OMEGA_P)
        taus = (7e-15, 42e-15, 155e-15)
        reference = None
        for state in (default_state, coherent, odd_state):
            built = bp.build_initial_state(state, fgrid)
            rates = []
            for tau in taus:
                final = run(built, cfg_mzi, tau)
                rates.append((bp.coincidence_rate(final),
                              bp.singles_rate(final, "c")))
            if reference is None:
                reference = rates
            else:
                for got, ref in zip(rates, reference):
                    assert np.allclose(got, ref, atol=1e-9)


class TestDenseRepresentation:
    def test_observables_match_branch_sum(self, small_state, small_grids, cfg_mzi, cfg_mzim):
        _, fgrid = small_grids
        built = bp.build_initial_state(small_state, fgrid)
        for cfg in (cfg_mzi, cfg_mzim):
            for tau in (0.0, 35e-15, 180e-15):
                elements = bp.build_pipeline(cfg, tau)
                branch_final = bp.apply_pipeline(built, elements)
                dense_final = bp.apply_pipeline(bp.to_dense(built), elements)
                assert bp.total_norm(dense_final) == pytest.approx(1.0, abs=1e-12)
                assert bp.coincidence_rate(dense_final) == pytest.approx(
                    bp.coincidence_rate(branch_final), abs=1e-12)
                for port in ("c", "d"):
                    assert bp.singles_rate(dense_final, port) == pytest.approx(
                        bp.singles_rate(branch_final, port), abs=1e-12)

    def test_post_pipeline_expansion_matches(self, small_state, small_grids, cfg_mzim):
        _, fgrid = small_grids
        built = bp.build_initial_state(small_state, fgrid)
        elements = bp.build_pipeline(cfg_mzim, 42e-15)
        branch_final = bp.apply_pipeline(built, elements)
        expanded = bp.to_dense(branch_final)
        direct = bp.apply_pipeline(bp.to_dense(built), elements)
        assert float(np.max(np.abs(expanded.tensor - direct.tensor))) < 1e-12

    def test_budget_guard(self, fgrid):
        sgrid = bp.SpatialGrid(half_width=3e-3, point_count=65)
        fgrid_big = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=129)
        state = bp.default_spdc_state(spatial_grid=sgrid)
        built = bp.build_initial_state(state, fgrid_big)
        with pytest.raises(BudgetExceeded):
            bp.to_dense(built)  # (2*65*129)^2 amplitudes ~ 4.5 GiB


class TestOracleScan:
    def test_scan_matches_pointwise_evaluation(self, default_state, cfg_mzi, fgrid, initial):
        gram = bp.oracle_scan(default_state, cfg_mzi, -20e-15, 20e-15, 0.25e-15,
                              frequency_grid=fgrid)
        assert gram.engine == "oracle"
        i = 17
        final = run(initial, cfg_mzi, gram.tau[i])
        assert gram.coincidences[i] == pytest.approx(bp.coincidence_rate(final), abs=1e-12)
        assert gram.singles_port1[i] == pytest.approx(bp.singles_rate(final, "c"), abs=1e-12)
        total = gram.singles_port1 + gram.singles_port2
        assert float(np.max(np.abs(total - 2.0))) < 1e-9

    def test_undersampled_step_rejected(self, default_state, cfg_mzi, fgrid):
        with pytest.raises(UnderSampled):
            bp.oracle_scan(default_state, cfg_mzi, -1e-15, 1e-15, 0.5e-15, frequency_grid=fgrid)

    def test_pump_frequency_mismatch_rejected(self, default_state, fgrid):
        cfg = bp.InterferometerConfig.mzi(OMEGA_P * 1.01)
        with pytest.raises(ValueError, match="pump frequency"):
            bp.oracle_scan(default_state, cfg, -1e-15, 1e-15, 0.1e-15, frequency_grid=fgrid)


class TestOracleProperties:
    """Physical invariants of the branch sum over random delays and shifted pumps.

    Each example runs at its random delay and at zero delay, where branches
    of equal data meet and the HOM amplitudes cancel.
    """

    @settings(max_examples=30, deadline=None)
    @given(tau_fs=st.floats(min_value=-150.0, max_value=150.0),
           waist_mm=st.floats(min_value=0.5, max_value=2.0),
           shift_mm=st.floats(min_value=-1.5, max_value=1.5),
           balanced=st.booleans())
    def test_invariants_and_dense_agreement(self, small_state, small_grids,
                                            tau_fs, waist_mm, shift_mm, balanced):
        sgrid, fgrid = small_grids
        pump = bp.gaussian_amplitude(sgrid, waist=waist_mm * 1e-3, center=shift_mm * 1e-3)
        state = bp.TwoPhotonState(bp.CorrelatedPump(pump), small_state.spectral, OMEGA_P)
        cfg = (bp.InterferometerConfig.mzi if balanced else bp.InterferometerConfig.mzim)(OMEGA_P)
        built = bp.build_initial_state(state, fgrid)
        for tau in (0.0, tau_fs * 1e-15):
            rates = {}
            for convention in (SYMMETRIC, CONJUGATE):
                elements = bp.build_pipeline(cfg, tau, convention)
                final = bp.apply_pipeline(built, elements)
                dense = bp.apply_pipeline(bp.to_dense(built), elements)
                s1, s2 = bp.singles_rate(final, "c"), bp.singles_rate(final, "d")
                cc = bp.coincidence_rate(final)
                assert bp.total_norm(final) == pytest.approx(1.0, abs=1e-12)
                assert s1 + s2 == pytest.approx(2.0, abs=1e-12)
                assert bp.singles_rate(dense, "c") == pytest.approx(s1, abs=1e-12)
                assert bp.singles_rate(dense, "d") == pytest.approx(s2, abs=1e-12)
                assert bp.coincidence_rate(dense) == pytest.approx(cc, abs=1e-12)
                rates[convention] = (s1, s2, cc)
            assert np.allclose(rates[SYMMETRIC], rates[CONJUGATE], rtol=0.0, atol=1e-12)


def _batch_states(small_state, small_grids):
    """Oracle states covering every factor kind: name -> TwoPhotonState."""
    sgrid, fgrid = small_grids
    gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
    shifted = bp.gaussian_amplitude(sgrid, waist=1e-3, center=0.7e-3)
    rng = np.random.default_rng(29)
    shape = (fgrid.point_count, fgrid.point_count)
    general_spectral = bp.GeneralSpectral.from_samples(
        fgrid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    general_spatial = bp.GeneralSpatial.product(gauss, shifted)
    anti = small_state.spectral
    return {
        "gaussian": (bp.CorrelatedPump(gauss), anti),
        "shifted": (bp.CorrelatedPump(shifted), anti),
        "hg1": (bp.CorrelatedPump(bp.hermite_gauss1_amplitude(sgrid, waist=1e-3)), anti),
        "general_spatial": (general_spatial, anti),
        "general_spectral": (bp.CorrelatedPump(gauss), general_spectral),
        "both_general": (general_spatial, general_spectral),
    }


class TestBatchedOracleScan:
    """The one-pass scan against the per-delay branch sum at every delay."""

    STEP = 0.25e-15

    @pytest.mark.parametrize("name", ["gaussian", "shifted", "hg1", "general_spatial",
                                      "general_spectral", "both_general"])
    def test_matches_per_delay_branch_sum(self, small_state, small_grids, name):
        _, fgrid = small_grids
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        built = bp.build_initial_state(state, fgrid)
        # Only the exchange-symmetric inputs stay one branch after symmetrisation.
        assert len(built.branches) == (1 if name in ("gaussian", "shifted", "hg1") else 2)
        half = 120 * self.STEP  # 241 delays, tau = 0 exactly at the centre
        for kind in ("mzi", "mzim"):
            cfg = getattr(bp.InterferometerConfig, kind)(OMEGA_P)
            for convention in (SYMMETRIC, CONJUGATE):
                for start, stop in ((-half, half), (17e-15, 17e-15)):
                    gram = bp.oracle_scan(state, cfg, start, stop, self.STEP,
                                          frequency_grid=fgrid,
                                          convention=convention)
                    assert gram.tau.size == (241 if start < stop else 1)
                    expected = np.array([
                        _rates(bp.apply_pipeline(built, bp.build_pipeline(cfg, t, convention)))
                        for t in gram.tau]).T
                    got = np.stack([gram.singles_port1, gram.singles_port2, gram.coincidences])
                    assert float(np.max(np.abs(got - expected))) <= 1e-12

    def test_general_spectral_on_a_foreign_grid_rejected(self, small_state, small_grids,
                                                          cfg_mzim):
        spatial, spectral = _batch_states(small_state, small_grids)["general_spectral"]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        foreign = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=19)
        with pytest.raises(GridAsymmetry, match="frequency grid differs"):
            bp.oracle_scan(state, cfg_mzim, -5e-15, 5e-15, self.STEP, frequency_grid=foreign)

    def test_general_spectral_scans_on_its_own_grid(self, small_state, small_grids, cfg_mzim):
        # without a frequency grid the scan takes the general sector's grid
        _, fgrid = small_grids
        spatial, spectral = _batch_states(small_state, small_grids)["general_spectral"]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        own = bp.oracle_scan(state, cfg_mzim, -5e-15, 5e-15, self.STEP)
        given = bp.oracle_scan(state, cfg_mzim, -5e-15, 5e-15, self.STEP, frequency_grid=fgrid)
        for column in ("singles_port1", "singles_port2", "coincidences"):
            assert np.array_equal(getattr(own, column), getattr(given, column))

    def test_final_branches_record_delays(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            final = run(initial, cfg, 0.0)
            assert len(final.branches) == 16
            assert {b.delays for b in final.branches} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert initial.branches[0].delays == (0, 0)


def _every_pair_table(state):
    """``_delay_table`` as first written: a fresh row offered to every branch
    pair by ``setdefault``, and every pair's terms placed by ``np.add.at``.
    """
    c = state.frequency_grid.point_count // 2
    table = {}
    for pair, group in modesim._by_path_pair(state.branches).items():
        for x, y, coef in modesim._branch_pairs(group):
            d0, d1 = y.delays[0] - x.delays[0], y.delays[1] - x.delays[1]
            terms, n0, n1 = x.spectral.inner_terms(y.spectral)
            row = table.setdefault((pair, d0 + d1), np.zeros(4 * c + 1, dtype=complex))
            np.add.at(row, 2 * c - d0 * n0 - d1 * n1, coef * terms)
    return table


def _assert_tables_bit_equal(state, fgrid):
    """Every instrument, arm assignment and beam-splitter convention."""
    built = bp.build_initial_state(state, fgrid)
    for kind in (bp.MZI, bp.MZIM):
        for delay_arm, flip_arm in ARM_ASSIGNMENTS:
            for convention in (SYMMETRIC, CONJUGATE):
                final = bp.apply_pipeline(
                    built, arm_pipeline(kind, 0.0, convention, delay_arm, flip_arm))
                got, reference = modesim._delay_table(final), _every_pair_table(final)
                assert list(got) == list(reference)
                for key, row in reference.items():
                    assert got[key].tobytes() == row.tobytes()


class TestDelayTableBits:
    """Each row built once, each product once, runs placed by slice: the
    table's bits are those of the pair-by-pair reference."""

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_configs(self, name):
        (state, *_), fgrid = _bundled_scan_args(name)
        _assert_tables_bit_equal(state, fgrid)

    @pytest.mark.parametrize("name", ["shifted", "hg1", "general_spatial", "both_general"])
    def test_small_grid_states(self, small_state, small_grids, name):
        _, fgrid = small_grids
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        _assert_tables_bit_equal(bp.TwoPhotonState(spatial, spectral, OMEGA_P), fgrid)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_pumps_and_densities(self, small_grids, seed):
        sgrid, _ = small_grids
        fgrid = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=33)
        rng = np.random.default_rng(seed)
        pump = bp.SpatialAmplitude.from_samples(
            sgrid, rng.normal(size=sgrid.point_count) + 1j * rng.normal(size=sgrid.point_count))
        density = bp.SpectralDensity(bp.Tabulated(
            tuple(fgrid.omegas()), tuple(rng.uniform(0.1, 1.0, size=fgrid.point_count))))
        state = bp.TwoPhotonState(bp.CorrelatedPump(pump), bp.AntiCorrelated(density), OMEGA_P)
        _assert_tables_bit_equal(state, fgrid)


def _bundled_scan_args(name):
    cfg = load_config(bundled_config_path(name))
    state, icfg, _, fgrid = build_problem(cfg)
    return (state, icfg, cfg.tau_start, cfg.tau_stop, cfg.tau_step), fgrid


def _every_row(rows):
    return list(rows), list(range(len(rows)))


class TestDistinctRows:
    """The scan transforms each distinct delay-table row once."""

    def _assert_matches_every_row(self, monkeypatch, args, fgrid):
        got = bp.oracle_scan(*args, frequency_grid=fgrid)
        with monkeypatch.context() as patch:
            patch.setattr(modesim, "_distinct_rows", _every_row)
            reference = bp.oracle_scan(*args, frequency_grid=fgrid)
        for column in ("singles_port1", "singles_port2", "coincidences"):
            assert np.array_equal(getattr(got, column), getattr(reference, column))

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_scan_equals_every_row_reference(self, monkeypatch, name):
        self._assert_matches_every_row(monkeypatch, *_bundled_scan_args(name))

    @pytest.mark.parametrize("name", ["shifted", "hg1", "general_spatial", "both_general"])
    def test_small_grid_scan_equals_every_row_reference(self, monkeypatch, small_state,
                                                        small_grids, name):
        _, fgrid = small_grids
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        for kind in ("mzi", "mzim"):
            cfg = getattr(bp.InterferometerConfig, kind)(OMEGA_P)
            self._assert_matches_every_row(monkeypatch, (state, cfg, -30e-15, 30e-15, 0.25e-15),
                                           fgrid)

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_configs_transform_seven_of_twelve_rows(self, monkeypatch, name):
        args, fgrid = _bundled_scan_args(name)
        state, icfg = args[:2]
        final = bp.apply_pipeline(bp.build_initial_state(state, fgrid),
                                  bp.build_pipeline(icfg, 0.0))
        assert len(modesim._delay_table(final)) == 12
        transformed = []

        def recording(u, *rest):
            transformed.append(u.shape[0])
            return chirp_z(u, *rest)

        monkeypatch.setattr(modesim, "chirp_z", recording)
        bp.oracle_scan(*args, frequency_grid=fgrid)
        assert transformed == [7]

    def test_rows_merge_only_on_equal_bits(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=9) + 1j * rng.normal(size=9)
        row[4] = 0.0
        signed_zero = row.copy()
        signed_zero[4] = complex(-0.0, 0.0)
        with_nan = row.copy()
        with_nan[2] = complex(np.nan, 1.0)
        other_nan = with_nan.copy()
        other_nan.view(np.int64)[4] ^= 1  # another NaN payload
        rows = [row, signed_zero, with_nan, with_nan.copy(), other_nan, row.copy()]
        distinct, which = _distinct_rows(rows)
        assert which == [0, 1, 2, 2, 3, 0]
        assert all(d is r for d, r in zip(distinct, (row, signed_zero, with_nan, other_nan)))
        # a merged row reads its representative's transform: equal input bits
        # give equal output bits
        args = (1.1e11, -1e-15, 0.25e-15, 7)
        every = chirp_z(np.array(rows), *args)
        once = chirp_z(np.array(distinct), *args)
        for j, k in enumerate(which):
            assert np.array_equal(every[j].view(np.int64), once[k].view(np.int64))

    def test_rows_equal_on_every_sampled_bit_stay_apart(self):
        # 8193-point rows, the oracle's on a 4097-point grid: the bucket key
        # samples a stride of their bits, and the rest still decides
        row = np.random.default_rng(4).normal(size=8193) + 0j
        rows = [row]
        for entry in (1, 4096, 8192):
            other = row.copy()
            other[entry] = complex(other[entry].real, 1.0)
            assert modesim._row_key(other.view(np.int64)) == modesim._row_key(row.view(np.int64))
            rows.append(other)
        distinct, which = _distinct_rows(rows + [row.copy()])
        assert which == [0, 1, 2, 3, 0]
        assert all(d is r for d, r in zip(distinct, rows))
