"""Agent solver: expectation/derivative values, best response, risk posture."""

import importlib.util
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from contractgame import (
    AgentPreferences,
    Contract,
    DomainError,
    EffortInterval,
    EffortProfile,
    ExpAffine,
    LogAffine,
    Maximizer,
    MaximizerKind,
    Polynomial,
    Power,
    PrincipalPreferences,
    RiskClass,
    Scenario,
    Tabulated,
    agent_best_response,
    agent_expectation,
    agent_payoff_functions,
    classify_risk,
    detect_invisible_effort,
    motivation,
    persistence,
    transience,
    two_outcome_linear_analysis,
)
import contractgame.agent as agent_module
from contractgame.agent import (
    FINITE_BOUND, TAU_E, LinearPayoff, bracket_roots, flat_scan, scan_candidates, settle, snap_root,
)
from contractgame.oracle import finite_diff_d1, grid_argmax
from contractgame.tables import MT_GRID_POINTS, SCAN_GRID_POINTS, effort_tables
from scenario_gen import (
    constant_profile_scenario,
    linear_two_outcome_scenario,
    neutral_taxonomy_scenario,
    random_scenario,
    reference_scenario,
    seeking_taxonomy_scenario,
)


def rel_close(a, b, tol=1e-6):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _two_outcome(p1, u, v, reservation=0.0, interval=(0.0, 1.0)):
    return Scenario(
        outcomes=(10.0, 2.0),
        interval=EffortInterval(*interval),
        profile=EffortProfile((p1,)),
        agent=AgentPreferences(u, v, reservation),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )


IDENTITY = Polynomial((0.0, 1.0))


class TestExpectation:
    def test_reference_value(self):
        scenario, contract = reference_scenario()
        # hand expansion: E(e) = 2e + 0.8 - 2e^2
        assert agent_expectation(scenario, contract, 0.5) == pytest.approx(
            1.3, abs=1e-12
        )
        for e in np.linspace(0.0, 1.0, 11):
            expected = 2.0 * e + 0.8 - 2.0 * e * e
            assert agent_expectation(scenario, contract, float(e)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_constant_profile_at_cost_minimum(self):
        scenario = _two_outcome(
            Polynomial((0.3,)), IDENTITY, Polynomial((0.09, -0.6, 1.0))
        )
        wage = Contract((4.0, 0.0))
        assert agent_expectation(scenario, wage, 0.3) == pytest.approx(1.2, abs=1e-12)

    def test_equal_wages_collapse_to_constant(self):
        scenario = _two_outcome(
            Polynomial((0.2, 0.5)), Polynomial((5.0,)), Polynomial((0.0,))
        )
        wage = Contract((7.0, 7.0))
        for e in (0.0, 0.31, 1.0):
            assert agent_expectation(scenario, wage, e) == 5.0

    def test_minus_zero_base_keeps_its_sign(self):
        """u(w_n) = -0.0 and no nonzero term: E(0) is -0.0 - v(0) = -0.0, as u(w_n) - v(0) is."""
        # u(0) = -1 * 0**0.5 = -0.0, and the contract (0, 0) has no delta
        scenario = _two_outcome(
            Polynomial((0.2, 0.5)), Power(-1.0, 0.5, 0.0), Polynomial((0.0, 0.0, 2.0))
        )
        contract = Contract((0.0, 0.0))
        assert np.signbit(agent_expectation(scenario, contract, 0.0))
        response = agent_best_response(scenario, contract)
        assert response.efforts() == (0.0,) and response.accepted
        assert np.signbit(response.optimal_expectation)
        assert np.signbit(response.maximizers[0].expectation)


class TestDerivatives:
    def test_reference_motivation(self):
        scenario, contract = reference_scenario()
        assert motivation(scenario, contract, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert motivation(scenario, contract, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_constant_profile_motivation_is_minus_cost_slope(self):
        scenario = _two_outcome(
            Polynomial((0.3,)), IDENTITY, Polynomial((0.09, -0.6, 1.0))
        )
        wage = Contract((4.0, 0.0))
        assert motivation(scenario, wage, 0.0) == pytest.approx(0.6, abs=1e-12)

    def test_zero_cost_constant_profile_motivation_vanishes(self):
        scenario = _two_outcome(Polynomial((0.3,)), IDENTITY, Polynomial((0.0,)))
        wage = Contract((4.0, 0.0))
        for e in np.linspace(0.0, 1.0, 7):
            assert motivation(scenario, wage, float(e)) == 0.0

    def test_reference_persistence(self):
        scenario, contract = reference_scenario()
        for e in (0.0, 0.4, 1.0):
            assert persistence(scenario, contract, e) == pytest.approx(-4.0, abs=1e-12)

    def test_transience_is_negated_persistence(self):
        rng = np.random.default_rng(5)
        scenario, contract = random_scenario(rng)
        lo, hi = scenario.interval.lo, scenario.interval.hi
        for e in rng.uniform(lo, hi, size=10):
            e = float(e)
            assert transience(scenario, contract, e) == -persistence(
                scenario, contract, e
            )

    def test_derivatives_match_finite_differences(self):
        """Motivation vs FD of expectation, persistence vs FD of motivation."""
        rng = np.random.default_rng(11)
        for _ in range(30):
            scenario, contract = random_scenario(rng, smooth_only=True)
            value, slope, curvature = agent_payoff_functions(scenario, contract)
            lo, hi = scenario.interval.lo, scenario.interval.hi
            pad = 1e-3 * (hi - lo)
            for e in rng.uniform(lo + pad, hi - pad, size=10):
                e = float(e)
                step = 1e-6 * max(1.0, abs(e))
                assert rel_close(slope(e), finite_diff_d1(value, e, step))
                assert rel_close(curvature(e), finite_diff_d1(slope, e, step))

    def test_payoff_functions_vectorize(self):
        rng = np.random.default_rng(12)
        scenario, contract = random_scenario(rng)
        value, slope, curvature = agent_payoff_functions(scenario, contract)
        grid = scenario.interval.grid(37)
        for f in (value, slope, curvature):
            vec = np.asarray(f(grid))
            scal = np.asarray([f(float(t)) for t in grid])
            np.testing.assert_allclose(vec, scal, rtol=1e-13, atol=1e-13)


class TestBestResponse:
    def test_reference_interior_maximum(self):
        scenario, contract = reference_scenario()
        response = agent_best_response(scenario, contract)
        assert len(response.maximizers) == 1
        top = response.maximizers[0]
        assert top.effort == pytest.approx(0.5, abs=1e-9)
        assert top.kind is MaximizerKind.INTERIOR_CRITICAL
        assert response.optimal_expectation == pytest.approx(1.3, abs=1e-9)
        assert response.accepted
        assert not response.constant_expectation
        value, _, _ = agent_payoff_functions(scenario, contract)
        _, grid_best = grid_argmax(value, scenario.interval, 100_001)
        assert response.optimal_expectation == pytest.approx(grid_best, abs=1e-9)

    def test_constant_profile_minimizes_cost(self):
        scenario = _two_outcome(
            Polynomial((0.3,)), IDENTITY, Polynomial((0.09, -0.6, 1.0))
        )
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        assert len(response.maximizers) == 1
        top = response.maximizers[0]
        assert top.effort == pytest.approx(0.3, abs=1e-9)
        assert top.kind is MaximizerKind.INTERIOR_CRITICAL
        assert response.optimal_expectation == pytest.approx(1.2, abs=1e-9)

    def test_monotone_expectation_hits_upper_boundary(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), IDENTITY, Polynomial((0.0, 1.0)))
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        assert len(response.maximizers) == 1
        top = response.maximizers[0]
        assert top.effort == 1.0
        assert top.kind is MaximizerKind.BOUNDARY_MAX
        assert top.expectation == pytest.approx(1.8, abs=1e-12)

    def test_interval_narrower_than_dedup_keeps_both_boundaries(self):
        # on [0, 1e-10] every candidate lies within TAU_E of 0; the far
        # better upper boundary must not be merged into the lower one
        scenario = _two_outcome(
            Polynomial((0.2, 0.5)), IDENTITY, Polynomial((0.0, -1e11)),
            interval=(0.0, 1e-10),
        )
        contract = Contract((4.0, 0.0))
        expected = agent_expectation(scenario, contract, 1e-10)
        assert expected == pytest.approx(10.8000000002, abs=1e-12)
        for response in (
            agent_best_response(scenario, contract),
            two_outcome_linear_analysis(scenario, contract).best_response,
        ):
            assert response.optimal_expectation == expected
            assert response.maximizers == (
                Maximizer(1e-10, MaximizerKind.BOUNDARY_MAX, expected),
            )

    def test_flat_expectation_reports_boundary_representatives(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), IDENTITY, Polynomial((0.0, 2.0)))
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        assert response.constant_expectation
        assert response.efforts() == (0.0, 1.0)
        kinds = [m.kind for m in response.maximizers]
        assert kinds == [MaximizerKind.BOUNDARY_MIN, MaximizerKind.BOUNDARY_MAX]
        assert response.optimal_expectation == pytest.approx(0.8, abs=1e-12)
        assert response.accepted

    def test_flat_expectation_on_an_interval_narrower_than_tau_e(self):
        """lo and hi are within TAU_E of each other, yet lo is labelled
        BOUNDARY_MIN and hi BOUNDARY_MAX, as on a wide interval."""
        scenario = _two_outcome(
            Polynomial((0.3,)), IDENTITY, Polynomial((0.0,)), interval=(0.0, 1e-10)
        )
        contract = Contract((4.0, 0.0))
        for response in (
            agent_best_response(scenario, contract),
            two_outcome_linear_analysis(scenario, contract).best_response,
            detect_invisible_effort(scenario).best_response,
        ):
            assert response.constant_expectation
            best = response.optimal_expectation
            assert response.maximizers == (
                Maximizer(0.0, MaximizerKind.BOUNDARY_MIN, best),
                Maximizer(1e-10, MaximizerKind.BOUNDARY_MAX, best),
            )

    def test_rejection_below_reservation(self):
        scenario = _two_outcome(
            Polynomial((0.2, 0.5)), IDENTITY, Polynomial((0.0, 0.0, 2.0)),
            reservation=2.0,
        )
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        assert not response.accepted
        assert response.maximizers  # maximizer still reported
        assert response.optimal_expectation == pytest.approx(1.3, abs=1e-9)

    def test_maximizers_sorted_and_tied(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            scenario, contract = random_scenario(rng)
            response = agent_best_response(scenario, contract)
            efforts = response.efforts()
            assert all(a < b for a, b in zip(efforts, efforts[1:]))
            scale = max(1.0, abs(response.optimal_expectation))
            for m in response.maximizers:
                assert (
                    response.optimal_expectation - m.expectation <= 1e-9 * scale
                )

    def test_interior_critical_kind_soundness(self):
        """Interior maximizers satisfy Mt ~ 0 and nonpositive persistence."""
        rng = np.random.default_rng(22)
        for _ in range(60):
            scenario, contract = random_scenario(rng)
            response = agent_best_response(scenario, contract)
            if response.constant_expectation:
                continue
            for m in response.maximizers:
                if m.kind is MaximizerKind.INTERIOR_CRITICAL:
                    assert abs(motivation(scenario, contract, m.effort)) <= 1e-8
                    assert persistence(scenario, contract, m.effort) < 1e-9

    def test_twin_equal_peaks_both_reported(self):
        # v = ((e-0.25)(e-0.75))^2 gives two equal interior maxima of E
        factor = np.array([0.1875, -1.0, 1.0])
        quartic = tuple(np.convolve(factor, factor))
        scenario = _two_outcome(Polynomial((0.4,)), IDENTITY, Polynomial(quartic))
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        assert len(response.maximizers) == 2
        assert response.maximizers[0].effort == pytest.approx(0.25, abs=1e-9)
        assert response.maximizers[1].effort == pytest.approx(0.75, abs=1e-9)
        assert all(
            m.kind is MaximizerKind.INTERIOR_CRITICAL for m in response.maximizers
        )
        assert response.optimal_expectation == pytest.approx(1.6, abs=1e-10)

    def test_flat_top_plateau_reports_edge_representatives(self):
        # tabulated cost is exactly zero on [0.4, 0.6]; the maximizer set is
        # that interval, represented by a few tied points spanning it
        cost = Tabulated((0.0, 0.4, 0.6, 1.0), (1.0, 0.0, 0.0, 1.0))
        scenario = _two_outcome(Polynomial((0.4,)), IDENTITY, cost)
        response = agent_best_response(scenario, Contract((4.0, 0.0)))
        efforts = response.efforts()
        assert 2 <= len(efforts) <= 8
        assert abs(efforts[0] - 0.4) <= 1e-3
        assert abs(efforts[-1] - 0.6) <= 1e-3
        assert response.optimal_expectation == pytest.approx(1.6, abs=1e-10)
        assert not response.constant_expectation

    def test_grid_oracle_agreement_small(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            scenario, contract = random_scenario(rng)
            response = agent_best_response(scenario, contract)
            value, _, _ = agent_payoff_functions(scenario, contract)
            arg, best = grid_argmax(value, scenario.interval, 200_001)
            assert response.optimal_expectation >= best - 1e-9
            assert abs(response.optimal_expectation - best) <= 1e-6
            assert min(abs(e - arg) for e in response.efforts()) <= 1e-4

    def test_affine_rescaling_leaves_maximizers_unchanged(self):
        """u -> alpha*u + beta with v -> alpha*v maps E to alpha*E + beta."""
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 30:
            scenario, contract = random_scenario(rng)
            alpha = float(rng.uniform(0.2, 3.0))
            beta = float(rng.uniform(-2.0, 2.0))
            u2 = _affine_curve(scenario.agent.utility, alpha, beta)
            v2 = _affine_curve(scenario.agent.effort_cost, alpha, 0.0)
            if u2 is None or v2 is None:
                continue
            rescaled = Scenario(
                outcomes=scenario.outcomes,
                interval=scenario.interval,
                profile=scenario.profile,
                agent=AgentPreferences(u2, v2, -1e18),
                principal=scenario.principal,
            )
            base = agent_best_response(scenario, contract)
            other = agent_best_response(rescaled, contract)
            assert len(base.maximizers) == len(other.maximizers)
            for a, b in zip(base.efforts(), other.efforts()):
                assert abs(a - b) <= 1e-9
            checked += 1


def _affine_curve(curve, alpha, beta):
    if isinstance(curve, Polynomial):
        coeffs = [alpha * c for c in curve.coefficients]
        coeffs[0] += beta
        return Polynomial(tuple(coeffs))
    if isinstance(curve, ExpAffine):
        return ExpAffine(alpha * curve.a + beta, alpha * curve.b, curve.c)
    if isinstance(curve, LogAffine):
        return LogAffine(alpha * curve.a + beta, alpha * curve.b, curve.c)
    if isinstance(curve, Tabulated):
        return Tabulated(
            curve.knots, tuple(alpha * v + beta for v in curve.values)
        )
    if isinstance(curve, Power) and beta == 0.0:
        return Power(alpha * curve.a, curve.gamma, curve.c)
    return None


class TestSignChanges:
    """Root bracketing tests the signs of the slope, never their product.

    A rising slope is a minimum of the function searched, found under the
    all-roots rule (minima=True, the two-outcome analyzer's); a falling
    one is a maximum, found under the maxima-only rule too.
    """

    GRID = np.linspace(0.0, 1.0, 5)

    @staticmethod
    def _slope(scale):
        return lambda e: scale * (e - 0.6)

    def test_tiny_slope_root_is_found(self):
        # 1e-171 * 1.5e-171 underflows to -0.0, which is not below zero
        g = self._slope(1e-170)
        roots = bracket_roots(g, self.GRID, g(self.GRID), minima=True)
        assert len(roots) == 1 and abs(roots[0] - 0.6) <= 1e-12
        root = snap_root(g, 0.5, 0.75)
        assert root is not None and abs(root - 0.6) <= 1e-12

    def test_huge_slope_warns_nothing(self):
        # 1e199 * 1.5e199 overflows
        g = self._slope(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = bracket_roots(g, self.GRID, g(self.GRID), minima=True)
            root = snap_root(g, 0.5, 0.75)
        assert len(roots) == 1 and abs(roots[0] - 0.6) <= 1e-12
        assert root is not None and abs(root - 0.6) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_falling_slope_root_is_found_under_the_maxima_rule(self, scale):
        g = self._slope(-scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = bracket_roots(g, self.GRID, g(self.GRID))
            root = snap_root(g, 0.5, 0.75)
        assert len(roots) == 1 and abs(roots[0] - 0.6) <= 1e-12
        assert root is not None and abs(root - 0.6) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e200])
    def test_rising_slope_is_skipped_under_the_maxima_rule(self, scale):
        calls = []
        slope = self._slope(scale)

        def g(e):
            calls.append(e)
            return slope(e)

        assert bracket_roots(g, self.GRID, slope(self.GRID)) == []
        assert calls == []

    def test_zero_runs_keep_their_edges_under_either_rule(self):
        # zero on [0.25, 0.5], falling after it, rising before it
        gv = np.array([-1.0, 0.0, 0.0, -1.0, 1.0])
        for minima in (False, True):
            roots = bracket_roots(lambda e: 1.0, self.GRID, gv, minima=minima)
            assert roots[:2] == [0.25, 0.5]
            assert len(roots) == 2 + minima


def _agent_pairs(seed, count):
    """perfbench/gen.py's agent_pairs, loaded from its file (perfbench is not a package)."""
    module = sys.modules.get("perfbench_gen")
    if module is None:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return [(pair.scenario, pair.contract) for pair in module.agent_pairs(seed, count)]


def _candidates(scenario, contract):
    """scan_candidates' (roots, open_brackets) for the contract, as float.hex."""
    payoff = LinearPayoff.agent(scenario, contract)
    tables = effort_tables(scenario)
    h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
    roots, open_brackets = scan_candidates(payoff, tables, h)
    return [r.hex() for r in roots], [(a.hex(), b.hex()) for a, b in open_brackets]


class TestSlopeMemo:
    """scan_candidates' bisections share one memo of the scalar slope."""

    @staticmethod
    def _record(monkeypatch):
        """The points of every LinearPayoff.slope call, as float.hex."""
        calls = []
        slope = LinearPayoff.slope

        def recording(self, e):
            calls.append(float(e).hex())
            return slope(self, e)

        monkeypatch.setattr(LinearPayoff, "slope", recording)
        return calls

    def test_zero_and_minus_zero_are_kept_apart(self):
        memo = agent_module._memo(lambda e: math.copysign(1.0, e))
        assert [memo(x) for x in (0.0, -0.0, 0.0, -0.0)] == [1.0, -1.0, 1.0, -1.0]
        calls = []
        memo = agent_module._memo(lambda e: calls.append(e) or 2.0 * e)
        assert [memo(x) for x in (0.25, 0.25, 0.5, 0.25)] == [0.5, 0.5, 1.0, 0.5]
        assert calls == [0.25, 0.5]

    def test_no_point_twice_and_the_unmemoized_roots(self, monkeypatch):
        """The fixture and 300 agent-corpus pairs: within one call of the
        candidate stage no nonzero point is asked for twice (zero is not
        kept), and the roots and open brackets are those of a search
        without the memo, bit for bit."""
        cases = [reference_scenario(), *_agent_pairs(4300, 300)]
        calls = self._record(monkeypatch)
        searched = calls_with = 0
        found = []
        for scenario, contract in cases:
            del calls[:]
            try:
                found.append(_candidates(scenario, contract))
            except DomainError as err:
                found.append(str(err))
                continue
            nonzero = [x for x in calls if float.fromhex(x) != 0.0]
            assert len(nonzero) == len(set(nonzero)), (scenario, contract)
            searched += 1
            calls_with += len(calls)
        assert searched > 250
        monkeypatch.setattr(agent_module, "_memo", lambda g: g)
        calls_without = 0
        for (scenario, contract), expected in zip(cases, found):
            del calls[:]
            try:
                got = _candidates(scenario, contract)
            except DomainError as err:
                got = str(err)
            assert got == expected, (scenario, contract)
            calls_without += len(calls)
        # the memo serves a large share of the calls
        assert calls_with < 0.8 * calls_without, (calls_with, calls_without)

    def test_bisection_through_zero(self, monkeypatch):
        """On [-1, 1], E = 0.5 - 0.1 e^2 peaks at the scan point 0, and the
        peak's bracket [-1/2048, 1/2048] is bisected at exactly 0.0."""
        scenario = _two_outcome(
            Polynomial((0.5, 0.0, -0.1)), IDENTITY, Polynomial((0.0,)), interval=(-1.0, 1.0)
        )
        contract = Contract((1.0, 0.0))
        calls = self._record(monkeypatch)
        with_memo = _candidates(scenario, contract)
        assert (0.0).hex() in calls
        monkeypatch.setattr(agent_module, "_memo", lambda g: g)
        assert _candidates(scenario, contract) == with_memo
        assert (0.0).hex() in with_memo[0]
        assert agent_best_response(scenario, contract).efforts() == (0.0,)


class TestMaximaOnly:
    """Why bisecting only the + to - sign changes of the slope moves no report
    but this one: a - to + root (a minimum) within TAU_E below a maximum,
    which the dedup kept in the maximum's place."""

    @staticmethod
    def _every_root_best(scenario, contract):
        """(efforts, best) of a search that also bisects the minima: the
        bracket grid's full root set, the scan peaks' snapped roots and
        golden-section points, settled."""
        payoff = LinearPayoff.agent(scenario, contract)
        tables = effort_tables(scenario)
        h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
        grid, gv = tables.grid(MT_GRID_POINTS), payoff.on_grid(tables, MT_GRID_POINTS, 1)
        maxima = bracket_roots(payoff.slope, grid, gv)
        every = bracket_roots(payoff.slope, grid, gv, minima=True)
        roots, open_brackets = scan_candidates(payoff, tables, h)
        assert roots[:len(maxima)] == maxima
        golden = [agent_module._golden_max(payoff.value, a, b) for a, b in open_brackets]
        _, pairs, best = settle(payoff.value, every + roots[len(maxima):] + golden, scenario.interval)
        return [e for e, _ in pairs], best, every

    def test_minimum_just_below_a_maximum(self):
        # p1 rises to 0.55 at 0.499, falls to a minimum at 0.5 - 4e-10,
        # rises steeply to its top 0.6 at 0.5 + 4e-10 and falls to 1: the
        # bracket-grid point 0.5 lies between the minimum and the maximum
        p1 = Tabulated((0.0, 0.499, 0.5 - 4e-10, 0.5 + 4e-10, 1.0), (0.2, 0.55, 0.5, 0.6, 0.1))
        scenario = _two_outcome(p1, IDENTITY, Polynomial((0.0,)))
        contract = Contract((10.0, 0.0))
        efforts, every_best, every = self._every_root_best(scenario, contract)
        low, top = (r for r in every if abs(r - 0.5) < 1e-9)
        assert 0.0 < top - low <= TAU_E
        # with the minimum a candidate, the dedup drops the maximum after it
        assert efforts == [pytest.approx(0.499, abs=1e-9)]
        response = agent_best_response(scenario, contract)
        assert response.efforts() == (pytest.approx(0.5 + 4e-10, abs=1e-11),)
        assert response.optimal_expectation >= every_best
        assert response.optimal_expectation == pytest.approx(6.0)
        assert every_best == pytest.approx(5.5)

    def test_maxima_only_reaches_the_every_root_best(self):
        """The fixture and 300 agent-corpus pairs: the maxima-only solve
        reaches the best value of the every-root search, and on these
        pairs no more than it."""
        better = 0
        for scenario, contract in [reference_scenario(), *_agent_pairs(4301, 300)]:
            try:
                response = agent_best_response(scenario, contract)
                if response.constant_expectation:
                    continue
                _, best, _ = self._every_root_best(scenario, contract)
            except DomainError:
                continue
            assert response.optimal_expectation >= best, (scenario, contract)
            better += response.optimal_expectation > best
        assert better == 0


class TestFlatScan:
    """flat_scan's four outcomes, bit for bit, with u(w) = w."""

    @staticmethod
    def _stage(cost, wages, p1=Polynomial((0.2, 0.5))):
        scenario = _two_outcome(p1, IDENTITY, cost)
        payoff = LinearPayoff.agent(scenario, Contract(wages))
        tables = effort_tables(scenario)
        # the based scan (base + a) - v with a = -0.0 + delta p1, as value adds it
        a = -0.0 + (wages[0] - wages[1]) * tables.array(p1, SCAN_GRID_POINTS)
        with np.errstate(over="ignore"):
            fv = (payoff.base + a) - tables.array(cost, SCAN_GRID_POINTS)
        return payoff, tables, fv

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).tobytes()

    @pytest.mark.parametrize("wages", [(2.0, 0.0), (2.0**1001, 2.0**1000)], ids=["small", "huge"])
    def test_not_flat_gives_h_alone(self, wages):
        # the huge base puts |base| + size above FINITE_BOUND: the based
        # scan is read, found finite and not returned
        payoff, tables, fv = self._stage(Polynomial((0.0, 0.0, 1.0)), wages)
        assert (abs(payoff.base) >= FINITE_BOUND) == (wages[1] > 1.0)
        assert np.isfinite(fv).all()
        h, constant = flat_scan(payoff, tables)
        assert constant is None
        assert self._bits(h) == self._bits(payoff.on_grid(tables, SCAN_GRID_POINTS, 0))

    def test_flat_gives_the_constant_result(self):
        # E = 1e12 + 100 (0.2 + 0.5e) spreads 50, within 1e-9 E
        payoff, tables, fv = self._stage(Polynomial((0.0,)), (1e12 + 100.0, 1e12))
        h, constant = flat_scan(payoff, tables)
        assert self._bits(h) == self._bits(payoff.on_grid(tables, SCAN_GRID_POINTS, 0))
        pairs, best, flag = constant
        assert flag is True and (pairs[0][0], pairs[1][0]) == (0.0, 1.0)
        assert self._bits([pairs[0][1], pairs[1][1], best]) == self._bits([fv[0], fv[-1], fv.max()])
        assert fv[0] < fv[-1]

    def test_the_based_scan_is_checked_first(self):
        # p1 = e, base 1e308, delta -1.5e308 and v = -0.9e308 + 1.5e308 e:
        # the based scan overflows at e = 0, and h = -1.5e308 e - v only
        # near e = 1
        payoff, tables, fv = self._stage(
            Polynomial((-0.9e308, 1.5e308)), (-0.5e308, 1e308), Polynomial((0.0, 1.0))
        )
        scan = tables.grid(SCAN_GRID_POINTS)
        with np.errstate(over="ignore"):
            h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
        assert not np.isfinite(fv[0]) and np.isfinite(h[0]) and not np.isfinite(h).all()
        with np.errstate(over="ignore"), pytest.raises(DomainError) as err:
            flat_scan(payoff, tables)
        assert str(err.value) == f"objective is not finite at {scan[0]}: {fv[0]}"


class TestRiskClassification:
    def test_reference_is_averse(self):
        scenario, contract = reference_scenario()
        risk = classify_risk(scenario, contract)
        assert risk.classification is RiskClass.AVERSE
        assert risk.persistence_min == pytest.approx(-4.0, abs=1e-12)
        assert risk.persistence_max == pytest.approx(-4.0, abs=1e-12)

    def test_all_linear_is_neutral(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), IDENTITY, Polynomial((0.0, 2.0)))
        risk = classify_risk(scenario, Contract((4.0, 0.0)))
        assert risk.classification is RiskClass.NEUTRAL

    def test_convex_profile_is_seeking_with_boundary_optimum(self):
        scenario = _two_outcome(
            Polynomial((0.2, 0.0, 0.5)), IDENTITY, Polynomial((0.0, 0.1))
        )
        contract = Contract((4.0, 0.0))
        risk = classify_risk(scenario, contract)
        assert risk.classification is RiskClass.SEEKING
        assert risk.persistence_min == pytest.approx(4.0, abs=1e-12)
        response = agent_best_response(scenario, contract)
        assert all(
            m.kind is not MaximizerKind.INTERIOR_CRITICAL
            for m in response.maximizers
        )
        # hand check: E = 0.8 + 2e^2 - 0.1e peaks at e = 1
        assert response.maximizers[-1].effort == 1.0

    def test_mixed_when_persistence_changes_sign(self):
        scenario = _two_outcome(
            Polynomial((0.4, 0.0, 0.3, -0.2)), IDENTITY, Polynomial((0.0,))
        )
        contract = Contract((4.0, 0.0))
        risk = classify_risk(scenario, contract)
        assert risk.classification is RiskClass.MIXED
        assert risk.persistence_min < 0.0 < risk.persistence_max

    def test_seeking_scenarios_maximize_at_boundaries(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            scenario, contract = seeking_taxonomy_scenario(rng)
            risk = classify_risk(scenario, contract)
            assert risk.classification is RiskClass.SEEKING
            response = agent_best_response(scenario, contract)
            for m in response.maximizers:
                assert m.kind in (
                    MaximizerKind.BOUNDARY_MIN,
                    MaximizerKind.BOUNDARY_MAX,
                )

    def test_neutral_nonconstant_maximizes_at_boundaries(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            scenario, contract, slope = neutral_taxonomy_scenario(rng, constant=False)
            risk = classify_risk(scenario, contract)
            assert risk.classification is RiskClass.NEUTRAL
            response = agent_best_response(scenario, contract)
            assert not response.constant_expectation
            assert len(response.maximizers) == 1
            expected = (
                MaximizerKind.BOUNDARY_MAX if slope > 0 else MaximizerKind.BOUNDARY_MIN
            )
            assert response.maximizers[0].kind is expected

    def test_constant_profile_reduces_to_cost_minimization(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            scenario, contract, argmin = constant_profile_scenario(rng)
            response = agent_best_response(scenario, contract)
            assert len(response.maximizers) == 1
            assert abs(response.maximizers[0].effort - argmin) <= 1e-6
            assert classify_risk(scenario, contract).classification is RiskClass.AVERSE

    def test_two_outcome_interior_maximizers_satisfy_foc(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            scenario, contract = linear_two_outcome_scenario(rng)
            slope = scenario.profile.components[0].coefficients[1]
            u = scenario.agent.utility
            target = slope * (u.eval(contract[0]) - u.eval(contract[1]))
            v = scenario.agent.effort_cost
            response = agent_best_response(scenario, contract)
            for m in response.maximizers:
                if m.kind is MaximizerKind.INTERIOR_CRITICAL:
                    assert abs(target - v.d1(m.effort)) <= 1e-8
