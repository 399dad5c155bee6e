import cmath
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import biphoton as bp
from biphoton import modesim
from biphoton.cli import bundled_config_path, load_config
from biphoton.errors import BiphotonError, UnderSampled
from biphoton.modesim import _photon_map
from biphoton.spectral import chirp_z

from conftest import DELTA_OMEGA, OMEGA_P, arm_pipeline, on_frequency_grid, oracle_convention
from dense_reference import (
    SPLITTERS,
    BudgetExceeded,
    ConjugateBeamSplitter,
    exchange_asymmetry,
    to_dense,
)


@pytest.fixture(scope="module")
def small_grids():
    sgrid = bp.SpatialGrid(half_width=3e-3, point_count=9)
    fgrid = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=17)
    return sgrid, fgrid


@pytest.fixture(scope="module")
def small_state(small_grids):
    sgrid, fgrid = small_grids
    return on_frequency_grid(bp.default_spdc_state(spatial_grid=sgrid), fgrid)


@pytest.fixture(scope="session")
def initial(default_state):
    return bp.build_initial_state(default_state)


def run(initial_state, cfg, tau):
    return bp.apply_pipeline(initial_state, bp.build_pipeline(cfg, tau))


ARM_ASSIGNMENTS = [(delay_arm, flip_arm) for delay_arm in "ab" for flip_arm in "ab"]


@pytest.fixture(scope="module")
def interpreters(small_state, small_grids):
    """Each interpreter of an element list: branch sum and dense tensor."""
    built = bp.build_initial_state(small_state)
    return (
        lambda elements: bp.apply_pipeline(built, elements),
        lambda elements: bp.apply_pipeline(to_dense(built), elements),
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

    def test_general_spatial_becomes_full_factor(self, default_state, sgrid):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                  default_state.spectral, OMEGA_P)
        built = bp.build_initial_state(state)
        assert built.branches[0].spatial.kind == "full"
        assert bp.total_norm(built) == pytest.approx(1.0, abs=1e-9)

    def test_matches_explicit_dense_construction(self, small_state, small_grids):
        sgrid, fgrid = small_grids
        built = to_dense(bp.build_initial_state(small_state))

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
        """One outcome: to ``path``, amplitude one, no flip, no phases, no delay."""
        (o,) = outcomes
        return ((o.path, o.amplitude, o.flip, o.phases, o.delay)
                == (path, 1.0, False, None, False))

    @pytest.mark.parametrize("convention, cross", [("symmetric", 1j), ("conjugate", -1j)])
    def test_beam_splitter_amplitudes(self, initial, convention, cross):
        photon = _photon_map(SPLITTERS[convention](), initial)
        r = 1.0 / math.sqrt(2.0)
        expected = {"a": [("a", r), ("b", cross * r)], "b": [("a", cross * r), ("b", r)]}
        assert sorted(photon) == ["a", "b"]
        for path, outcomes in photon.items():
            assert [o.path for o in outcomes] == [q for q, _ in expected[path]]
            for o, (_, amplitude) in zip(outcomes, expected[path]):
                assert o.amplitude == pytest.approx(amplitude, abs=1e-15)
                assert not o.flip and o.phases is None and not o.delay

    @pytest.mark.parametrize("arm, other", [("a", "b"), ("b", "a")])
    def test_delay_phase_on_delay_arm_only(self, initial, fgrid, arm, other):
        tau = 37e-15
        photon = _photon_map(bp.Delay(arm, tau), initial)
        assert self.plain_move(photon[other], other)
        (o,) = photon[arm]
        assert (o.path, o.amplitude, o.flip, o.delay) == (arm, 1.0, False, True)
        expected = [cmath.exp(-1j * (OMEGA_P / 2.0 + w) * tau) for w in fgrid.omegas()]
        assert np.allclose(o.phases, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -0.0])
    @pytest.mark.parametrize("arm, other", [("a", "b"), ("b", "a")])
    def test_zero_delay_counts_but_carries_no_phases(self, monkeypatch, initial, arm, other,
                                                     tau):
        # every phase would be exactly 1: no exponential is evaluated
        def no_exp(*args, **kwargs):
            raise AssertionError("a zero delay evaluated an exponential")

        monkeypatch.setattr(np, "exp", no_exp)
        photon = _photon_map(bp.Delay(arm, tau), initial)
        monkeypatch.undo()
        assert self.plain_move(photon[other], other)
        (o,) = photon[arm]
        assert (o.path, o.amplitude, o.flip, o.phases, o.delay) == (arm, 1.0, False, None, True)

    @pytest.mark.parametrize("arm, other", [("a", "b"), ("b", "a")])
    def test_flip_on_flip_arm_only(self, initial, arm, other):
        photon = _photon_map(bp.SpatialFlip(arm), initial)
        assert self.plain_move(photon[other], other)
        (o,) = photon[arm]
        assert (o.path, o.amplitude, o.flip, o.phases, o.delay) == (arm, 1.0, True, None, False)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_delay_rejects_a_non_finite_tau(self, cfg_mzi, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            bp.Delay("b", tau)
        with pytest.raises(ValueError, match="tau must be finite"):
            bp.build_pipeline(cfg_mzi, tau)

    @pytest.mark.parametrize("pump_frequency", [math.nan, math.inf, 0.0, -OMEGA_P])
    def test_delay_rejects_a_pump_frequency_not_finite_and_positive(self, initial,
                                                                    pump_frequency):
        # a delay's phases read the pump frequency of the branch sum they act
        # on, which rejects one that is not finite and positive
        with pytest.raises(ValueError, match="pump_frequency must be finite and positive"):
            dataclasses.replace(initial, pump_frequency=pump_frequency)


class TestElementSemantics:
    def test_double_beam_splitter_routes_to_one_port(self, initial):
        # BS followed immediately by BS sends path a to i b: everything
        # exits port 2, coincidences vanish.
        elements = [bp.BeamSplitter(), bp.BeamSplitter()]
        final = bp.apply_pipeline(initial, elements)
        assert bp.coincidence_rate(final) == pytest.approx(0.0, abs=1e-12)
        assert bp.singles_rate(final, 2) == pytest.approx(2.0, abs=1e-12)
        assert bp.singles_rate(final, 1) == pytest.approx(0.0, abs=1e-12)
        assert bp.total_norm(final) == pytest.approx(1.0, abs=1e-12)

    def test_delay_on_unoccupied_arm_is_identity(self, initial):
        delayed = bp.apply_pipeline(initial, [bp.Delay("b", 40e-15)])
        assert len(delayed.branches) == 1
        b0, b1 = initial.branches[0], delayed.branches[0]
        assert np.array_equal(b0.spectral.data, b1.spectral.data)
        assert np.array_equal(b0.spatial.data, b1.spatial.data)

    def test_flip_of_even_correlated_branch_is_identity(self, initial):
        flipped = bp.apply_pipeline(initial, [bp.SpatialFlip("a")])
        b0, b1 = initial.branches[0], flipped.branches[0]
        dense0 = b0.spatial.to_full()
        dense1 = b1.spatial.to_full()
        assert float(np.max(np.abs(dense0 - dense1))) < 1e-12

    def test_norm_preserved_after_each_element(self, initial, cfg_mzim):
        state = initial
        for element in bp.build_pipeline(cfg_mzim, 37e-15):
            state = bp.apply_pipeline(state, [element])
            assert bp.total_norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_branch_count_capped(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            state = initial
            for element in bp.build_pipeline(cfg, 21e-15):
                state = bp.apply_pipeline(state, [element])
                assert len(state.branches) <= 16

    def test_exchange_symmetry_preserved_dense(self, small_state, small_grids, cfg_mzim):
        # The dense representation supports a direct, cancellation-free
        # asymmetry check at the 1e-12 scale, element by element.
        state = to_dense(bp.build_initial_state(small_state))
        assert exchange_asymmetry(state) < 1e-12
        for element in bp.build_pipeline(cfg_mzim, 33e-15):
            state = bp.apply_pipeline(state, [element])
            assert exchange_asymmetry(state) < 1e-12
            assert bp.total_norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_exchange_symmetry_branch_diagnostic(self, initial, cfg_mzim):
        # The branch-sum asymmetry is a difference of cancelling unit-scale
        # norms, so its floating-point floor is ~1e-7, not 1e-12.
        final = run(initial, cfg_mzim, 29e-15)
        assert exchange_asymmetry(final) < 1e-6

    def test_unknown_element_rejected(self, interpreters):
        for interpret in interpreters:
            with pytest.raises(BiphotonError, match="unknown element 'mirror'"):
                interpret(["mirror"])

    def test_unknown_arm_rejected(self, interpreters):
        for element in (bp.Delay("c", 1e-15), bp.SpatialFlip("x")):
            for interpret in interpreters:
                with pytest.raises(ValueError):
                    interpret([bp.BeamSplitter(), element])

    @pytest.mark.parametrize("port", ["c", "d", 0, 3])
    def test_singles_port_is_one_or_two(self, initial, cfg_mzi, port):
        final = run(initial, cfg_mzi, 17e-15)
        with pytest.raises(ValueError, match="port must be 1 or 2"):
            bp.singles_rate(final, port)
        # the port is checked before any norm is read
        with pytest.raises(ValueError, match="port must be 1 or 2"):
            bp.singles_rate(None, port)


class TestClosedFormEquivalence:
    TAUS = np.linspace(-300e-15, 300e-15, 200)

    def test_balanced_interferometer(self, default_state, cfg_mzi, initial):
        expected_s1, _, expected_cc = bp.rates(default_state, cfg_mzi, self.TAUS)
        worst_cc = worst_s1 = 0.0
        for tau, cc_ref, s1_ref in zip(self.TAUS, expected_cc, expected_s1):
            final = run(initial, cfg_mzi, tau)
            worst_cc = max(worst_cc, abs(bp.coincidence_rate(final) - cc_ref))
            worst_s1 = max(worst_s1, abs(bp.singles_rate(final, 1) - s1_ref))
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
            self, default_state, cfg_mzim, initial):
        expected = bp.rates(default_state, cfg_mzim, self.TAUS)[0]
        worst = 0.0
        for tau, ref in zip(self.TAUS, expected):
            final = run(initial, cfg_mzim, tau)
            worst = max(worst, abs(bp.singles_rate(final, 1) - ref))
        assert worst <= 1e-6

    def test_coherent_even_sector_gives_full_fringes(
            self, default_state, sgrid, cfg_mzim):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        state = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                  default_state.spectral, OMEGA_P)
        built = bp.build_initial_state(state)
        expected = bp.rates(state, cfg_mzim, self.TAUS[::10])[0]
        for tau, ref in zip(self.TAUS[::10], expected):
            final = run(built, cfg_mzim, tau)
            assert bp.singles_rate(final, 1) == pytest.approx(ref, abs=1e-6)

    def test_zero_delay_full_dip(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            assert bp.coincidence_rate(run(initial, cfg, 0.0)) <= 1e-6

    def test_full_factor_agreement_does_not_grow_with_the_grid(self, default_state, cfg_mzim):
        # A double Gaussian (pump waist 1 mm, correlation width 0.1 mm) as a
        # full 1025 x 1025 factor.  One running sum over its N^2 products
        # put the engines 8.4e-14 apart; summed row by row, 1.6e-15.
        grid = bp.SpatialGrid(half_width=3e-3, point_count=1025)
        x1, x2 = np.meshgrid(grid.positions(), grid.positions(), indexing="ij")
        amplitude = np.exp(-((x1 + x2) / 2.0e-3)**2 - ((x1 - x2) / 0.2e-3)**2)
        state = bp.TwoPhotonState(bp.GeneralSpatial.from_samples(grid, amplitude),
                                  default_state.spectral, default_state.pump_frequency)
        args = (state, cfg_mzim, -20e-15, 20e-15, 0.08e-15)
        closed, oracle = bp.scan(*args), modesim.oracle_scan(*args)
        for column in ("singles_port1", "singles_port2", "coincidences"):
            assert np.max(np.abs(getattr(closed, column) - getattr(oracle, column))) <= 1e-14


class TestParityCases:
    def test_odd_pump_coincidences(self, odd_state, cfg_mzim):
        built = bp.build_initial_state(odd_state)
        taus = np.linspace(-150e-15, 150e-15, 40)
        expected = bp.rates(odd_state, cfg_mzim, taus)[2]
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
        built = bp.build_initial_state(state)
        cfg = bp.InterferometerConfig(bp.MZIM)
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

    def test_even_pump_fringe_versus_odd_pump_fringe(self, initial, odd_state, cfg_mzim):
        built_odd = bp.build_initial_state(odd_state)
        tau = 0.25 * 2.0 * math.pi / OMEGA_P
        even = bp.coincidence_rate(run(initial, cfg_mzim, tau))
        odd = bp.coincidence_rate(run(built_odd, cfg_mzim, tau))
        assert even + odd == pytest.approx(2.0, abs=1e-9)


class TestInvariances:
    def test_arm_assignment_independence(self, default_state, sgrid, initial, cfg_mzim):
        taus = (11e-15, 60e-15)
        reference = None
        for delay_arm, flip_arm in ARM_ASSIGNMENTS:
            rates = []
            for tau in taus:
                final = bp.apply_pipeline(
                    initial, arm_pipeline(cfg_mzim, tau, bp.BeamSplitter, delay_arm, flip_arm))
                rates.append((bp.coincidence_rate(final),
                              bp.singles_rate(final, 1),
                              bp.singles_rate(final, 2)))
            if reference is None:
                reference = rates
            else:
                for got, ref in zip(rates, reference):
                    assert np.allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("convention", list(SPLITTERS))
    @pytest.mark.parametrize("kind", [bp.MZI, bp.MZIM])
    def test_pipeline_puts_delay_and_flip_in_arm_b(self, kind, convention):
        # The variant the tests build for a convention differs from
        # build_pipeline in the splitters' class only.
        cfg = bp.InterferometerConfig(kind)
        splitter = SPLITTERS[convention]
        elements = [splitter() if isinstance(e, bp.BeamSplitter) else e
                    for e in bp.build_pipeline(cfg, 13e-15)]
        assert elements == arm_pipeline(cfg, 13e-15, splitter, "b", "b")

    def test_beam_splitter_convention_independence(self, initial, cfg_mzi, cfg_mzim):
        for cfg in (cfg_mzi, cfg_mzim):
            for tau in (0.0, 17e-15, 123e-15):
                a = run(initial, cfg, tau)
                b = bp.apply_pipeline(initial, arm_pipeline(cfg, tau, ConjugateBeamSplitter))
                assert bp.coincidence_rate(a) == pytest.approx(
                    bp.coincidence_rate(b), abs=1e-9)
                for port in (1, 2):
                    assert bp.singles_rate(a, port) == pytest.approx(
                        bp.singles_rate(b, port), abs=1e-9)

    def test_spatial_sector_independence_in_balanced_instrument(
            self, default_state, odd_state, sgrid, cfg_mzi):
        gauss = bp.gaussian_amplitude(sgrid, waist=1e-3)
        coherent = bp.TwoPhotonState(bp.GeneralSpatial.product(gauss, gauss),
                                     default_state.spectral, OMEGA_P)
        taus = (7e-15, 42e-15, 155e-15)
        reference = None
        for state in (default_state, coherent, odd_state):
            built = bp.build_initial_state(state)
            rates = []
            for tau in taus:
                final = run(built, cfg_mzi, tau)
                rates.append((bp.coincidence_rate(final),
                              bp.singles_rate(final, 1)))
            if reference is None:
                reference = rates
            else:
                for got, ref in zip(rates, reference):
                    assert np.allclose(got, ref, atol=1e-9)


class TestDenseRepresentation:
    def test_observables_match_branch_sum(self, small_state, small_grids, cfg_mzi, cfg_mzim):
        built = bp.build_initial_state(small_state)
        for cfg in (cfg_mzi, cfg_mzim):
            for tau in (0.0, 35e-15, 180e-15):
                elements = bp.build_pipeline(cfg, tau)
                branch_final = bp.apply_pipeline(built, elements)
                dense_final = bp.apply_pipeline(to_dense(built), elements)
                assert bp.total_norm(dense_final) == pytest.approx(1.0, abs=1e-12)
                assert bp.coincidence_rate(dense_final) == pytest.approx(
                    bp.coincidence_rate(branch_final), abs=1e-12)
                for port in (1, 2):
                    assert bp.singles_rate(dense_final, port) == pytest.approx(
                        bp.singles_rate(branch_final, port), abs=1e-12)

    def test_post_pipeline_expansion_matches(self, small_state, small_grids, cfg_mzim):
        built = bp.build_initial_state(small_state)
        elements = bp.build_pipeline(cfg_mzim, 42e-15)
        branch_final = bp.apply_pipeline(built, elements)
        expanded = to_dense(branch_final)
        direct = bp.apply_pipeline(to_dense(built), elements)
        assert float(np.max(np.abs(expanded.tensor - direct.tensor))) < 1e-12

    def test_budget_guard(self):
        sgrid = bp.SpatialGrid(half_width=3e-3, point_count=65)
        fgrid_big = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=129)
        state = on_frequency_grid(bp.default_spdc_state(spatial_grid=sgrid), fgrid_big)
        built = bp.build_initial_state(state)
        with pytest.raises(BudgetExceeded):
            to_dense(built)  # (2*65*129)^2 amplitudes ~ 4.5 GiB


class TestOracleScan:
    def test_scan_matches_pointwise_evaluation(self, default_state, cfg_mzi, initial):
        gram = bp.oracle_scan(default_state, cfg_mzi, -20e-15, 20e-15, 0.25e-15)
        assert gram.engine == "oracle"
        i = 17
        final = run(initial, cfg_mzi, gram.tau[i])
        assert gram.coincidences[i] == pytest.approx(bp.coincidence_rate(final), abs=1e-12)
        assert gram.singles_port1[i] == pytest.approx(bp.singles_rate(final, 1), abs=1e-12)
        total = gram.singles_port1 + gram.singles_port2
        assert float(np.max(np.abs(total - 2.0))) < 1e-9

    def test_undersampled_step_rejected(self, default_state, cfg_mzi):
        with pytest.raises(UnderSampled):
            bp.oracle_scan(default_state, cfg_mzi, -1e-15, 1e-15, 0.5e-15)


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
        sgrid, _ = small_grids
        pump = bp.gaussian_amplitude(sgrid, waist=waist_mm * 1e-3, center=shift_mm * 1e-3)
        state = bp.TwoPhotonState(bp.CorrelatedPump(pump), small_state.spectral, OMEGA_P)
        cfg = bp.InterferometerConfig(bp.MZI if balanced else bp.MZIM)
        built = bp.build_initial_state(state)
        for tau in (0.0, tau_fs * 1e-15):
            rates = {}
            for convention, splitter in SPLITTERS.items():
                elements = arm_pipeline(cfg, tau, splitter)
                final = bp.apply_pipeline(built, elements)
                dense = bp.apply_pipeline(to_dense(built), elements)
                s1, s2 = bp.singles_rate(final, 1), bp.singles_rate(final, 2)
                cc = bp.coincidence_rate(final)
                assert bp.total_norm(final) == pytest.approx(1.0, abs=1e-12)
                assert s1 + s2 == pytest.approx(2.0, abs=1e-12)
                assert bp.singles_rate(dense, 1) == pytest.approx(s1, abs=1e-12)
                assert bp.singles_rate(dense, 2) == pytest.approx(s2, abs=1e-12)
                assert bp.coincidence_rate(dense) == pytest.approx(cc, abs=1e-12)
                rates[convention] = (s1, s2, cc)
            assert np.allclose(rates["symmetric"], rates["conjugate"], rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           sectors=st.sampled_from([(spatial, spectral)
                                    for spatial in ("pump", "symmetrised", "general")
                                    for spectral in ("density", "symmetrised", "general")
                                    if (spatial, spectral) != ("pump", "density")]),
           tau_fs=st.floats(min_value=-150.0, max_value=150.0),
           kind=st.sampled_from([bp.MZI, bp.MZIM]),
           convention=st.sampled_from(list(SPLITTERS)))
    def test_general_sectors_dense_agreement(self, small_grids, seed, sectors, tau_fs,
                                             kind, convention):
        # leaves max_examples to the profile: CI's deep step draws 3000.  A
        # "general" sector is a random complex matrix, exchange asymmetric.
        sgrid, fgrid = small_grids
        state = bp.TwoPhotonState(*_random_sectors(sgrid, fgrid, *sectors, seed), OMEGA_P)
        built = bp.build_initial_state(state)
        elements = arm_pipeline(bp.InterferometerConfig(kind), tau_fs * 1e-15,
                                SPLITTERS[convention])
        final = bp.apply_pipeline(built, elements)
        dense = bp.apply_pipeline(to_dense(built), elements)
        assert bp.total_norm(final) == pytest.approx(1.0, abs=1e-12)
        assert bp.total_norm(dense) == pytest.approx(1.0, abs=1e-12)
        for port in (1, 2):
            assert bp.singles_rate(dense, port) == pytest.approx(
                bp.singles_rate(final, port), abs=1e-12)
        assert bp.coincidence_rate(dense) == pytest.approx(bp.coincidence_rate(final), abs=1e-12)


def _random_sectors(sgrid, fgrid, spatial_kind, spectral_kind, seed):
    """A random spatial and spectral sector on the given grids.

    ``pump`` is a correlated random complex pump, ``density`` an
    anti-correlated random tabulated density, ``general`` a random complex
    joint amplitude and ``symmetrised`` that amplitude plus its transpose.
    """
    rng = np.random.default_rng(seed)

    def joint(kind, n):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return raw if kind == "general" else raw + raw.T

    n, m = sgrid.point_count, fgrid.point_count
    if spatial_kind == "pump":
        spatial = bp.CorrelatedPump(bp.SpatialAmplitude.from_samples(
            sgrid, rng.normal(size=n) + 1j * rng.normal(size=n)))
    else:
        spatial = bp.GeneralSpatial.from_samples(sgrid, joint(spatial_kind, n))
    if spectral_kind == "density":
        spectral = bp.AntiCorrelated(bp.SpectralDensity(bp.Tabulated(
            tuple(fgrid.omegas()), tuple(rng.uniform(0.1, 1.0, size=m)))), fgrid)
    else:
        spectral = bp.GeneralSpectral.from_samples(fgrid, joint(spectral_kind, m))
    return spatial, spectral


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
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        built = bp.build_initial_state(state)
        # Only the exchange-symmetric inputs stay one branch after symmetrisation.
        assert len(built.branches) == (1 if name in ("gaussian", "shifted", "hg1") else 2)
        half = 120 * self.STEP  # 241 delays, tau = 0 exactly at the centre
        for kind in ("mzi", "mzim"):
            cfg = bp.InterferometerConfig(kind)
            for splitter in SPLITTERS.values():
                for start, stop in ((-half, half), (17e-15, 17e-15)):
                    with oracle_convention(splitter):
                        gram = bp.oracle_scan(state, cfg, start, stop, self.STEP)
                    assert gram.tau.size == (241 if start < stop else 1)
                    finals = [bp.apply_pipeline(built, arm_pipeline(cfg, t, splitter))
                              for t in gram.tau]
                    expected = np.array([[bp.singles_rate(final, 1), bp.singles_rate(final, 2),
                                          bp.coincidence_rate(final)] for final in finals]).T
                    got = np.stack([gram.singles_port1, gram.singles_port2, gram.coincidences])
                    assert float(np.max(np.abs(got - expected))) <= 1e-12

    def test_general_spectral_scans_on_its_own_grid(self, small_state, small_grids, cfg_mzim):
        # the branch sum runs on the grid the general sector carries
        _, fgrid = small_grids
        spatial, spectral = _batch_states(small_state, small_grids)["general_spectral"]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        built = bp.build_initial_state(state)
        assert built.frequency_grid == spectral.grid == fgrid
        gram = bp.oracle_scan(state, cfg_mzim, -5e-15, 5e-15, self.STEP)
        final = run(built, cfg_mzim, gram.tau[3])
        assert gram.coincidences[3] == pytest.approx(bp.coincidence_rate(final), abs=1e-12)

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
        for x, y, coef in modesim._branch_pairs(group, {}):
            d0, d1 = y.delays[0] - x.delays[0], y.delays[1] - x.delays[1]
            terms, n0, n1 = x.spectral.inner_terms(y.spectral)
            row = table.setdefault((pair, d0 + d1), np.zeros(4 * c + 1, dtype=complex))
            np.add.at(row, 2 * c - d0 * n0 - d1 * n1, coef * terms)
    return table


def _read(entry):
    """A delay-table entry's row: a key of sign -1 reads its twin's row as -row + 0.0."""
    sign, row = entry
    return row if sign > 0 else -row + 0.0


def _reads(entry, sign, row):
    """Whether a delay-table entry reads ``row`` (the object) with ``sign``."""
    return entry[0] == sign and entry[1] is row


def _assert_tables_bit_equal(state):
    """Every instrument, arm assignment and beam-splitter convention."""
    built = bp.build_initial_state(state)
    for kind in (bp.MZI, bp.MZIM):
        cfg = bp.InterferometerConfig(kind)
        for delay_arm, flip_arm in ARM_ASSIGNMENTS:
            for splitter in SPLITTERS.values():
                final = bp.apply_pipeline(
                    built, arm_pipeline(cfg, 0.0, splitter, delay_arm, flip_arm))
                got, reference = modesim._delay_table(final), _every_pair_table(final)
                assert list(got) == list(reference)
                for key, row in reference.items():
                    assert _read(got[key]).tobytes() == row.tobytes()


class TestDelayTableBits:
    """Each row built once, each product once, runs placed by slice, a
    negated recipe read as its twin's row negated: the table's bits are those
    of the pair-by-pair reference."""

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_configs(self, name):
        state, *_ = _bundled_scan_args(name)
        _assert_tables_bit_equal(state)

    @pytest.mark.parametrize("name", ["shifted", "hg1", "general_spatial", "both_general"])
    def test_small_grid_states(self, small_state, small_grids, name):
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        _assert_tables_bit_equal(bp.TwoPhotonState(spatial, spectral, OMEGA_P))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_pumps_and_densities(self, small_grids, seed):
        sgrid, _ = small_grids
        _assert_tables_bit_equal(_random_state(sgrid, seed))


def _random_state(sgrid, seed):
    """A random complex pump and a random tabulated density, on a 33-point
    frequency grid."""
    fgrid = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=33)
    rng = np.random.default_rng(seed)
    pump = bp.SpatialAmplitude.from_samples(
        sgrid, rng.normal(size=sgrid.point_count) + 1j * rng.normal(size=sgrid.point_count))
    density = bp.SpectralDensity(bp.Tabulated(
        tuple(fgrid.omegas()), tuple(rng.uniform(0.1, 1.0, size=fgrid.point_count))))
    return bp.TwoPhotonState(bp.CorrelatedPump(pump), bp.AntiCorrelated(density, fgrid), OMEGA_P)


def _bundled_scan_args(name):
    cfg = load_config(bundled_config_path(name))
    return cfg.state, cfg.instrument, cfg.tau_start, cfg.tau_stop, cfg.tau_step


def _distinct_rows(rows):
    """The rows that differ from each other in some bit, in order of first
    appearance, and for each row the index of its bit-equal row among them.
    Rows are compared as integers, so -0.0 and 0.0 stay apart.
    """
    distinct, which = [], []
    for row in rows:
        bits = row.view(np.int64)
        k = next((k for k, d in enumerate(distinct) if np.array_equal(bits, d.view(np.int64))),
                 None)
        if k is None:
            k = len(distinct)
            distinct.append(row)
        which.append(k)
    return distinct, which


def _reference_norms(final, pump_frequency, tau, tau_step):
    """``_delay_norms`` by the earlier route, the bit-exact reference: every
    (path pair, m) key's row built on its own (``_every_pair_table``), rows
    merged only on equal bits, every distinct row transformed, zero rows
    too, and each key's term added to its pair's norm.
    """
    table = _every_pair_table(final)
    distinct, which = _distinct_rows(list(table.values()))
    sums = chirp_z(np.array(distinct), final.frequency_grid.spacing, tau[0], tau_step, tau.size)
    norms = {}
    for (pair, m), k in zip(table, which):
        pump = np.exp(-0.5j * m * pump_frequency * tau)
        norms[pair] = norms.get(pair, 0.0) + (pump * sums[k]).real
    return norms


def _reference_scan(state, cfg, tau_start, tau_stop, tau_step):
    """The oracle's rates by the earlier route (``_reference_norms``)."""
    tau = modesim._scan_axis(state, tau_start, tau_stop, tau_step)
    final = bp.apply_pipeline(bp.build_initial_state(state), bp.build_pipeline(cfg, 0.0))
    return (tau,) + modesim._port_rule(_reference_norms(final, state.pump_frequency, tau, tau_step))


def _assert_scan_matches_reference(args):
    gram = bp.oracle_scan(*args)
    got = (gram.tau, gram.singles_port1, gram.singles_port2, gram.coincidences)
    for column, reference in zip(got, _reference_scan(*args)):
        assert np.array_equal(column.view(np.int64), reference.view(np.int64))
    return gram


def _fine_grid_scan_args(tmp_path, profile):
    """MZIM on 257 x 4097-point grids, 201 delays, as the fine-grid survey runs it."""
    cfg = json.loads(bundled_config_path("default_mzim").read_text())
    cfg["scan"] = {"tau_start_fs": -5.0, "tau_stop_fs": 5.0, "tau_step_fs": 0.05}
    cfg["grids"] = {"spatial_points": 257, "spectral_points": 4097, "spatial_halfwidth_mm": 3.0}
    cfg["pump"]["spatial_profile"] = profile
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    run_cfg = load_config(path)
    return (run_cfg.state, run_cfg.instrument, run_cfg.tau_start, run_cfg.tau_stop,
            run_cfg.tau_step)


def _shared_rows(args):
    """The delay table's keys and the row objects they share."""
    state, icfg = args[:2]
    final = bp.apply_pipeline(bp.build_initial_state(state), bp.build_pipeline(icfg, 0.0))
    table = modesim._delay_table(final)
    return table, list({id(row): row for _, row in table.values()}.values())


def _recording_chirp_z(monkeypatch):
    transformed = []

    def recording(u, *rest):
        transformed.append(u.shape[0])
        return chirp_z(u, *rest)

    monkeypatch.setattr(modesim, "chirp_z", recording)
    return transformed


_SPECTRAL = modesim.Factor.antidiagonal(
    np.array([1.0, -2.0, 3.0, 0.5, 1.5]) + 1j * np.array([0.5, 1.0, -2.0, 0.25, 1.5]))
_S1 = modesim.Factor.diagonal([1.0, 0.5, 0.25])
_S2 = modesim.Factor.diagonal([0.5, -1.0, 0.0])  # orthogonal to _S1


def _hand_built_state(weights, spatial, spectral=((_SPECTRAL,) * 2,) * 2):
    """Two branches in each of the path pairs (a, b) and (b, a), the second
    delayed on photon 2; each argument holds the two pairs' two branches'
    weights, spatial factors or spectral factors.
    """
    branches = tuple(
        modesim.Branch(*pair, w, s, f, delays)
        for pair, ws, ss, fs in zip((("a", "b"), ("b", "a")), weights, spatial, spectral)
        for w, s, f, delays in zip(ws, ss, fs, ((0, 0), (0, 1))))
    return bp.BranchSumState(bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=5),
                             OMEGA_P, branches)


def _cross_coefficients(state):
    """Each path pair's coefficient for its two branches' cross pair."""
    return [next(coef for x, y, coef in modesim._branch_pairs(group, {}) if x is not y)
            for group in modesim._by_path_pair(state.branches).values()]


def _assert_rows_match_every_pair_table(table, state):
    reference = _every_pair_table(state)
    assert list(table) == list(reference)
    for key, row in reference.items():
        assert _read(table[key]).tobytes() == row.tobytes()


_PART = st.sampled_from([0.0, 0.5, 1.0])
_SIGN = st.sampled_from([1.0, -1.0])


@st.composite
def _signed_weights(draw):
    """The second branch's weight in each path pair of ``_hand_built_state``:
    +-c for one drawn c whose parts are 0.0, 0.5 or 1.0, every zero part of
    either sign.  The pairs' cross coefficients are then equal, negated or
    zero, each up to the sign of a zero.
    """
    parts = draw(st.tuples(_PART, _PART))

    def signed():
        sign = draw(_SIGN)
        return complex(*(sign * part if part else draw(_SIGN) * 0.0 for part in parts))

    return signed(), signed()


def _expected_entries(state):
    """For each delay-table key, in walk order: the index of the first key
    whose row it reads (its own if it builds one) and its sign.  A key reads
    the row of the first earlier key whose pairs have equal coefficients,
    or else of the first whose pairs have negated ones, with that key's sign
    negated; equality is of values, so a zero's sign is ignored.
    """
    walks = {}
    for pair, group in modesim._by_path_pair(state.branches).items():
        for x, y, coef in modesim._branch_pairs(group, {}):
            d = (y.delays[0] - x.delays[0], y.delays[1] - x.delays[1])
            walks.setdefault((pair, sum(d)), []).append((coef, x.spectral, y.spectral, d))

    def related(walk, other, sign):
        return len(walk) == len(other) and all(
            c == sign * c_other and f is f_other and g is g_other and d == d_other
            for (c, f, g, d), (c_other, f_other, g_other, d_other) in zip(walk, other))

    walks = list(walks.items())
    expected = []
    for k, (_, walk) in enumerate(walks):
        for sign in (1, -1):
            j = next((j for j, (_, other) in enumerate(walks[:k]) if related(walk, other, sign)),
                     None)
            if j is not None:
                expected.append((expected[j][0], sign * expected[j][1]))
                break
        else:
            expected.append((k, 1))
    return [key for key, _ in walks], expected


def _m1_relation(table):
    """How the hand-built state's two m = 1 keys read their rows."""
    (sign, row), (other_sign, other_row) = table[("a", "b"), 1], table[("b", "a"), 1]
    if row is not other_row:
        return "apart"
    return ("zero, " if not row.any() else "") + ("twins" if sign != other_sign else "shared")


class TestDistinctRows:
    """The scan transforms each built delay-table row that is nonzero somewhere once."""

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_scan_equals_every_row_reference(self, name):
        _assert_scan_matches_reference(_bundled_scan_args(name))

    @pytest.mark.parametrize("name", ["shifted", "hg1", "general_spatial", "both_general"])
    def test_small_grid_scan_equals_every_row_reference(self, small_state, small_grids, name):
        spatial, spectral = _batch_states(small_state, small_grids)[name]
        state = bp.TwoPhotonState(spatial, spectral, OMEGA_P)
        for kind in ("mzi", "mzim"):
            cfg = bp.InterferometerConfig(kind)
            _assert_scan_matches_reference((state, cfg, -30e-15, 30e-15, 0.25e-15))

    @pytest.mark.parametrize("profile", [
        {"kind": "hg1", "waist_mm": 0.9},
        {"kind": "shifted_gaussian", "waist_mm": 1.0, "shift_mm": 0.4},
        {"kind": "tabulated_file"},
    ], ids=["hg1", "shifted_gaussian", "tabulated_file"])
    def test_fine_grid_scan_equals_every_row_reference(self, tmp_path, profile):
        if profile["kind"] == "tabulated_file":
            table_path = tmp_path / "pump.csv"
            table_path.write_text("".join(
                f"{x / 20!r},{(1.0 + 0.3 * x / 20) * math.exp(-(x / 20 - 0.3) ** 2)!r}\n"
                for x in range(-60, 61)))
            profile = dict(profile, path=str(table_path))
        args = _fine_grid_scan_args(tmp_path, profile)
        assert args[0].spectral.grid.point_count == 4097
        assert _assert_scan_matches_reference(args).tau.size >= 201

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_pumps_and_densities_scan_bits(self, small_grids, seed):
        # leaves max_examples to the profile: CI's deep step draws 3000
        sgrid, _ = small_grids
        state = _random_state(sgrid, seed)
        for kind in ("mzi", "mzim"):
            cfg = bp.InterferometerConfig(kind)
            _assert_scan_matches_reference((state, cfg, -10e-15, 10e-15, 0.25e-15))

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_configs_transform_four_of_twelve_rows(self, monkeypatch, name):
        args = _bundled_scan_args(name)
        table, rows = _shared_rows(args)
        assert (len(table), len(rows), sum(row.any() for row in rows)) == (12, 5, 4)
        transformed = _recording_chirp_z(monkeypatch)
        bp.oracle_scan(*args)
        assert transformed == [4]

    def test_hg1_pump_transforms_three_of_twelve_rows(self, monkeypatch):
        state, *rest = _bundled_scan_args("default_mzim")
        pump = bp.hermite_gauss1_amplitude(state.spatial.grid, waist=1e-3)
        args = (bp.TwoPhotonState(bp.CorrelatedPump(pump), state.spectral, OMEGA_P), *rest)
        table, rows = _shared_rows(args)
        assert (len(table), len(rows), sum(row.any() for row in rows)) == (12, 4, 3)
        transformed = _recording_chirp_z(monkeypatch)
        bp.oracle_scan(*args)
        assert transformed == [3]

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_twin_rows_are_the_port_sum_rule(self, name):
        # s1 + s2 = 2: the (b, b) singles fringe is (a, a)'s negated, and the
        # cross pairs' m = 2 term cancels the like pairs'
        table, _ = _shared_rows(_bundled_scan_args(name))
        (sign1, aa1), (sign2, aa2) = table[("a", "a"), 1], table[("a", "a"), 2]
        assert sign1 == sign2 == 1 and aa1.any() and aa2.any()
        assert _reads(table[("b", "b"), 1], -1, aa1)
        assert _reads(table[("b", "b"), 2], 1, aa2)
        for pair in (("a", "b"), ("b", "a")):
            assert _reads(table[pair, 2], -1, aa2)

    @settings(deadline=None)
    @given(weights=_signed_weights(),
           spatial=st.tuples(st.sampled_from([_S1, _S2]), st.sampled_from([_S1, _S2])))
    def test_twin_exactly_when_a_recipe_is_negated(self, weights, spatial):
        # leaves max_examples to the profile: CI's deep step draws 3000
        state = _hand_built_state(tuple((1.0, w) for w in weights),
                                  tuple((_S1, s) for s in spatial))
        table = modesim._delay_table(state)
        keys, expected = _expected_entries(state)
        assert list(table) == keys
        for key, (j, sign) in zip(keys, expected):
            assert _reads(table[key], sign, table[keys[j]][1])
        event(f"m = 1 rows: {_m1_relation(table)}")
        _assert_rows_match_every_pair_table(table, state)
        tau = -1e-15 + 0.25e-15 * np.arange(9)
        got = modesim._delay_norms(state, tau, 0.25e-15)
        reference = _reference_norms(state, OMEGA_P, tau, 0.25e-15)
        assert list(got) == list(reference)
        for pair, norm in reference.items():
            assert np.array_equal(got[pair].view(np.int64), norm.view(np.int64))

    @pytest.mark.parametrize("weights, spatial", [
        # orthogonal spatial factors: the cross coefficients are 0.0 and -0.0
        (((1.0, 1.0), (1.0, -1.0)), ((_S1, _S2),) * 2),
        # a nonzero coefficient whose imaginary part is 0.0 in one pair and -0.0
        # in the other, as (a, b) and (b, a) at m = 2 on the bundled configs
        (((1.0, -1.0), (1.0, complex(-1.0, -0.0))), ((_S1, _S1),) * 2),
    ], ids=["zero", "zero_imaginary_part"])
    def test_recipes_apart_only_in_a_zero_sign_share_a_row(self, weights, spatial):
        state = _hand_built_state(weights, spatial)
        ab, ba = _cross_coefficients(state)
        assert ab == ba and ab.tobytes() != ba.tobytes()
        table = modesim._delay_table(state)
        assert table[("a", "b"), 1] is table[("b", "a"), 1]
        assert table[("a", "b"), 0] is table[("b", "a"), 0]
        _assert_rows_match_every_pair_table(table, state)

    def test_recipes_one_coefficient_bit_apart_stay_apart(self):
        state = _hand_built_state(((1.0, 1.0), (1.0, np.nextafter(1.0, 2.0))), ((_S1, _S1),) * 2)
        ab, ba = _cross_coefficients(state)
        assert ab != ba
        table = modesim._delay_table(state)
        assert table[("a", "b"), 1][1] is not table[("b", "a"), 1][1]
        _assert_rows_match_every_pair_table(table, state)

    def test_recipes_compare_spectral_factors_by_object(self):
        # equal data in another factor object: the recipes differ, the rows' bits do not
        twin = modesim.Factor.antidiagonal(_SPECTRAL.data.copy())
        state = _hand_built_state(((1.0, 1.0),) * 2, ((_S1, _S1),) * 2,
                                  ((_SPECTRAL, _SPECTRAL), (_SPECTRAL, twin)))
        table = modesim._delay_table(state)
        for m in (0, 1):
            assert table[("a", "b"), m][1] is not table[("b", "a"), m][1]
            assert table[("a", "b"), m][1].tobytes() == table[("b", "a"), m][1].tobytes()
        _assert_rows_match_every_pair_table(table, state)


def _recording_products(monkeypatch):
    """The factor pairs whose ``inner_terms`` run, in order, as object ids."""
    products = []
    inner_terms = modesim.Factor.inner_terms

    def recording(self, other):
        products.append((id(self), id(other)))
        return inner_terms(self, other)

    monkeypatch.setattr(modesim.Factor, "inner_terms", recording)
    return products


def _final_states(state):
    """The initial branch sum and the MZI and MZIM final states built at tau = 0."""
    built = bp.build_initial_state(state)
    return built, [bp.apply_pipeline(built, bp.build_pipeline(
        bp.InterferometerConfig(kind), 0.0)) for kind in (bp.MZI, bp.MZIM)]


class TestOneSpectralProduct:
    """A scan builds its final state at tau = 0, where a delay carries no
    phases: every branch keeps its initial spectral factor object, and the
    delay table forms one spectral product per pair of initial factors."""

    @pytest.mark.parametrize("name", ["default_mzi", "default_mzim"])
    def test_bundled_scan_forms_one_product(self, monkeypatch, name):
        args = _bundled_scan_args(name)
        built = bp.build_initial_state(args[0])
        final = bp.apply_pipeline(built, bp.build_pipeline(args[1], 0.0))
        assert len(final.branches) == 16
        assert {id(b.spectral) for b in final.branches} == {id(built.branches[0].spectral)}
        products = _recording_products(monkeypatch)
        bp.oracle_scan(*args)
        assert len(products) == 1

    def test_asymmetric_density_forms_three_products(self, monkeypatch, small_grids):
        sgrid, _ = small_grids
        state = _random_state(sgrid, 0)
        built, finals = _final_states(state)
        f, g = (b.spectral for b in built.branches)  # the density and its mirror image
        assert not np.array_equal(f.data, g.data)
        for final in finals:
            assert {id(b.spectral) for b in final.branches} == {id(f), id(g)}
            products = _recording_products(monkeypatch)
            modesim._delay_table(final)
            monkeypatch.undo()
            assert products == [(id(f), id(f)), (id(f), id(g)), (id(g), id(g))]

    def test_nonzero_delay_scales_the_delayed_photons_factors(self, initial, cfg_mzi):
        # the per-delay route away from tau = 0 keeps its phases
        final = run(initial, cfg_mzi, 37e-15)
        factors = {b.delays: b.spectral for b in final.branches}
        assert factors[0, 0] is initial.branches[0].spectral
        assert len({id(f) for f in factors.values()}) == 4

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_pumps_and_densities_share_the_initial_factors(self, small_grids, seed):
        # leaves max_examples to the profile: CI's deep step draws 3000
        sgrid, _ = small_grids
        built, finals = _final_states(_random_state(sgrid, seed))
        initial = {id(b.spectral) for b in built.branches}
        n = len(initial)
        for final in finals:
            assert len(final.branches) == 16 * len(built.branches)
            assert {id(b.spectral) for b in final.branches} == initial
            with pytest.MonkeyPatch.context() as patch:
                products = _recording_products(patch)
                modesim._delay_table(final)
            assert len(products) == len(set(products)) == n * (n + 1) // 2


def _recording_inner(monkeypatch):
    """The factor pairs whose ``inner`` runs, in order, as object ids."""
    calls = []
    inner = modesim.Factor.inner

    def recording(self, other):
        calls.append((id(self), id(other)))
        return inner(self, other)

    monkeypatch.setattr(modesim.Factor, "inner", recording)
    return calls


class TestOneSpatialProduct:
    """The delay table computes each spatial inner product once per pair of
    spatial factor objects, across all path pairs: the 16 final branches of
    an MZI scan share one spatial factor, and the MZIM's flips make four."""

    @pytest.mark.parametrize("name, count", [("default_mzi", 1), ("default_mzim", 10)])
    def test_bundled_scan_forms_each_product_once(self, monkeypatch, name, count):
        state, icfg, *_ = _bundled_scan_args(name)
        final = bp.apply_pipeline(bp.build_initial_state(state), bp.build_pipeline(icfg, 0.0))
        # every branch with a spatial factor object of its own, on the same
        # array (a copy could change its strides, and so np.vdot's order of
        # adds): each of the 40 branch pairs then computes its product
        unshared = dataclasses.replace(final, branches=tuple(
            dataclasses.replace(b, spatial=modesim.Factor(b.spatial.kind, b.spatial.data))
            for b in final.branches))
        tables = []
        for branches, expected in ((final, count), (unshared, 40)):
            with pytest.MonkeyPatch.context() as patch:
                calls = _recording_inner(patch)
                tables.append(modesim._delay_table(branches))
            assert len(calls) == len(set(calls)) == expected
        shared, reference = tables
        assert list(shared) == list(reference)
        for key, (sign, row) in reference.items():
            assert shared[key][0] == sign
            assert _read(shared[key]).tobytes() == _read((sign, row)).tobytes()


class TestCrossKindEquivalence:
    """The two entries of each sector table describe one source.

    A correlated pump phi is the joint amplitude diag(phi) / sqrt(dx), and an
    anti-correlated density d the joint amplitude antidiag(sqrt(d / h)) when d
    vanishes at both grid ends, where the trapezoid halves the weights.  On
    65 spatial and 129 frequency points, with random complex pumps of no
    parity and random densities, both entries of a table give the same alpha,
    b and oracle rates.  The spectral case runs on fixed seeds: an oracle
    scan of a full 129-point spectral factor takes about 0.3 s.
    """

    SGRID = bp.SpatialGrid(half_width=3e-3, point_count=65)
    FGRID = bp.FrequencyGrid(half_width=2.0 * DELTA_OMEGA, point_count=129)
    STEP = 0.25e-15

    def sectors(self, seed, even=False):
        """(random pump, random density that is 0 at both grid ends)."""
        rng = np.random.default_rng(seed)
        n, m = self.SGRID.point_count, self.FGRID.point_count
        pump = bp.SpatialAmplitude.from_samples(
            self.SGRID, rng.normal(size=n) + 1j * rng.normal(size=n))
        samples = np.concatenate([[0.0], rng.uniform(0.1, 1.0, size=m - 2), [0.0]])
        if even:
            samples = samples + samples[::-1]
        density = bp.SpectralDensity(bp.Tabulated(tuple(self.FGRID.omegas()), tuple(samples)))
        return pump, density

    def rates(self, spatial, spectral):
        out = []
        for kind in (bp.MZI, bp.MZIM):
            gram = bp.oracle_scan(bp.TwoPhotonState(spatial, spectral, OMEGA_P),
                                  bp.InterferometerConfig(kind), -30e-15, 30e-15,
                                  self.STEP)
            out.append(np.stack([gram.singles_port1, gram.singles_port2, gram.coincidences]))
        return np.array(out)

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_correlated_pump_is_the_diagonal_amplitude(self, seed):
        pump, density = self.sectors(seed)
        assert not np.allclose(np.abs(pump.flipped()), np.abs(pump.values))  # no parity
        correlated = bp.CorrelatedPump(pump)
        general = bp.GeneralSpatial(self.SGRID,
                                    np.diag(pump.values) / math.sqrt(self.SGRID.spacing))
        spectral = bp.AntiCorrelated(density, self.FGRID)
        ov_c, ov_g = (bp.exchange_overlaps(bp.TwoPhotonState(spatial, spectral, OMEGA_P))
                      for spatial in (correlated, general))
        assert abs(ov_c.alpha - ov_g.alpha) <= 1e-12
        assert abs(ov_c.b - ov_g.b) <= 1e-12
        gap = np.max(np.abs(self.rates(correlated, spectral) - self.rates(general, spectral)))
        assert gap <= 1e-12

    @pytest.mark.parametrize("even", [False, True], ids=["uneven", "even"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anti_correlated_density_is_the_anti_diagonal_amplitude(self, seed, even):
        pump, density = self.sectors(seed, even)
        d = bp.normalize(density, self.FGRID).sample(self.FGRID)
        assert d[0] == d[-1] == 0.0
        assert np.array_equal(d, d[::-1]) == even
        general = bp.GeneralSpectral.from_samples(
            self.FGRID, np.fliplr(np.diag(np.sqrt(d / self.FGRID.spacing))))
        spatial = bp.CorrelatedPump(pump)
        gap = np.max(np.abs(self.rates(spatial, bp.AntiCorrelated(density, self.FGRID))
                            - self.rates(spatial, general)))
        assert gap <= 1e-12
