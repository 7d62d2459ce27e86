"""Structural analyzers: flat profiles, linear two-outcome FOC, assumptions."""

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
    MaximizerKind,
    NotTwoOutcomeLinearError,
    Polynomial,
    Power,
    PrincipalPreferences,
    RiskClass,
    Scenario,
    agent_best_response,
    classical_assumptions_report,
    classify_risk,
    detect_invisible_effort,
    two_outcome_linear_analysis,
)
from contractgame.agent import TAU_E, LinearPayoff, bracket_roots, dedup_sorted, flat_scan
from contractgame.scenario_io import render_json, result_to_dict
from contractgame.tables import MT_GRID_POINTS, effort_tables
from scenario_gen import (
    averse_taxonomy_scenario,
    constant_profile_scenario,
    linear_two_outcome_scenario,
    neutral_taxonomy_scenario,
    reference_scenario,
)

IDENTITY = Polynomial((0.0, 1.0))


def _two_outcome(p1, u=IDENTITY, v=None, interval=(0.0, 1.0)):
    return Scenario(
        outcomes=(10.0, 2.0),
        interval=EffortInterval(*interval),
        profile=EffortProfile((p1,)),
        agent=AgentPreferences(u, v if v is not None else Polynomial((0.0, 0.0, 2.0))),
        principal=PrincipalPreferences(IDENTITY),
    )


def _hex(points) -> list[str]:
    return [float(x).hex() for x in points]


def _foc_roots(scenario, contract):
    """(interior roots, grid values) of the first-order condition as its own
    closure target - v'(e), target = C*(u(w1) - u(w2)); no roots on a flat
    expectation."""
    coeffs = scenario.profile.components[0].coefficients
    u = scenario.agent.utility
    target = (coeffs[1] if len(coeffs) > 1 else 0.0) * (
        u.eval(contract.wages[0]) - u.eval(contract.wages[1])
    )
    cost = scenario.agent.effort_cost
    tables = effort_tables(scenario)
    if flat_scan(LinearPayoff.agent(scenario, contract), tables)[1] is not None:
        return (), None

    def foc(e):
        return target - cost.d1(e)

    gv = target - tables.array(cost, MT_GRID_POINTS, 1)
    roots = dedup_sorted(bracket_roots(foc, tables.grid(MT_GRID_POINTS), gv, minima=True))
    lo, hi = scenario.interval.lo, scenario.interval.hi
    return tuple(r for r in roots if r - lo > TAU_E and hi - r > TAU_E), gv


class TestInvisibleEffort:
    def test_constant_profile_detected(self):
        scenario = _two_outcome(Polynomial((0.3,)), v=Polynomial((0.09, -0.6, 1.0)))
        report = detect_invisible_effort(scenario)
        assert report.is_invisible
        assert report.max_profile_deviation == 0.0
        assert report.best_response.efforts() == pytest.approx((0.3,), abs=1e-9)
        assert report.risk.classification is RiskClass.AVERSE

    def test_zero_cost_keeps_the_sign_of_zero(self):
        """The detector maximizes -v, so v = 0 gives -0.0 (0.0 - v would give 0.0)."""
        scenario = _two_outcome(Polynomial((0.3,)), v=Polynomial((0.0,)))
        report = result_to_dict(detect_invisible_effort(scenario))
        assert render_json(report["best_response"]) == (
            '{\n'
            '  "maximizers": [\n'
            '    {\n'
            '      "effort": 0,\n'
            '      "kind": "boundary_min",\n'
            '      "expectation": -0\n'
            '    },\n'
            '    {\n'
            '      "effort": 1,\n'
            '      "kind": "boundary_max",\n'
            '      "expectation": -0\n'
            '    }\n'
            '  ],\n'
            '  "optimal_expectation": -0,\n'
            '  "accepted": true,\n'
            '  "constant_expectation": true\n'
            '}'
        )

    def test_linear_profile_not_invisible(self):
        scenario, _ = reference_scenario()
        report = detect_invisible_effort(scenario)
        assert not report.is_invisible
        assert report.max_profile_deviation == pytest.approx(0.25, abs=1e-12)
        assert report.best_response is None
        assert report.risk is None

    def test_nearly_flat_profile_within_epsilon(self):
        scenario = _two_outcome(Polynomial((0.5, 1e-12)))
        report = detect_invisible_effort(scenario, 1e-9)
        assert report.is_invisible
        assert 0.0 < report.max_profile_deviation <= 1e-9

    def test_epsilon_is_tunable(self):
        scenario = _two_outcome(Polynomial((0.5, 0.02)))
        assert not detect_invisible_effort(scenario).is_invisible
        assert detect_invisible_effort(scenario, epsilon=0.1).is_invisible

    def test_matches_general_solver_on_constant_profiles(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            scenario, contract, _ = constant_profile_scenario(rng)
            report = detect_invisible_effort(scenario)
            assert report.is_invisible
            response = agent_best_response(scenario, contract)
            assert len(report.best_response.maximizers) == len(response.maximizers)
            for a, b in zip(report.best_response.efforts(), response.efforts()):
                assert abs(a - b) <= 1e-6


class TestTwoOutcomeLinear:
    def test_reference_interior_solution(self):
        scenario, contract = reference_scenario()
        report = two_outcome_linear_analysis(scenario, contract)
        assert report.slope == pytest.approx(0.5, abs=1e-15)
        assert report.intercept == pytest.approx(0.2, abs=1e-15)
        assert report.foc_target == pytest.approx(2.0, abs=1e-12)
        assert len(report.interior_solutions) == 1
        assert report.interior_solutions[0] == pytest.approx(0.5, abs=1e-10)
        response = agent_best_response(scenario, contract)
        assert report.best_response.efforts() == pytest.approx(
            response.efforts(), abs=1e-9
        )

    def test_equal_wages_kill_motivation(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)))
        report = two_outcome_linear_analysis(scenario, Contract((4.0, 4.0)))
        assert report.foc_target == 0.0
        assert report.interior_solutions == ()
        assert len(report.best_response.maximizers) == 1
        top = report.best_response.maximizers[0]
        assert top.effort == 0.0
        assert top.kind is MaximizerKind.BOUNDARY_MIN

    def test_interior_solutions_list_minima(self):
        """E' = 10 (e - 0.3)(e - 0.7): a maximum at 0.3 and a minimum at 0.7,
        both first-order solutions; the general solver bisects the maximum
        alone."""
        scenario = _two_outcome(Polynomial((0.2, 0.5)), v=Polynomial((0.0, -0.1, 5.0, -10.0 / 3.0)))
        contract = Contract((4.0, 0.0))
        report = two_outcome_linear_analysis(scenario, contract)
        assert report.interior_solutions == pytest.approx((0.3, 0.7), abs=1e-10)
        response = agent_best_response(scenario, contract)
        assert all(abs(e - 0.7) > 1e-3 for e in response.efforts())

    def test_zero_slope_defers_to_invisible_effort(self):
        scenario = _two_outcome(Polynomial((0.3,)), v=Polynomial((0.09, -0.6, 1.0)))
        report = two_outcome_linear_analysis(scenario, Contract((4.0, 0.0)))
        assert report.reduces_to_invisible
        assert report.invisible is not None and report.invisible.is_invisible
        assert report.best_response.efforts() == pytest.approx((0.3,), abs=1e-9)

    def test_rejects_other_shapes(self):
        three = Scenario(
            outcomes=(3.0, 2.0, 1.0),
            interval=EffortInterval(0.0, 1.0),
            profile=EffortProfile((Polynomial((0.2,)), Polynomial((0.3,)))),
            agent=AgentPreferences(IDENTITY, Polynomial((0.0, 1.0))),
            principal=PrincipalPreferences(IDENTITY),
        )
        with pytest.raises(NotTwoOutcomeLinearError):
            two_outcome_linear_analysis(three, Contract((1.0, 1.0, 1.0)))
        quadratic = _two_outcome(Polynomial((0.2, 0.0, 0.5)))
        with pytest.raises(NotTwoOutcomeLinearError):
            two_outcome_linear_analysis(quadratic, Contract((4.0, 0.0)))
        exponential = _two_outcome(ExpAffine(0.3, 0.01, 1.0))
        with pytest.raises(NotTwoOutcomeLinearError):
            two_outcome_linear_analysis(exponential, Contract((4.0, 0.0)))

    @pytest.mark.parametrize(
        "u, w1, message",
        [
            (Power(1.0, 0.5, 0.0), -1.0, "power curve needs t + 0.0 >= 0; got t=-1.0"),
            (Polynomial((0.0, 1e308)), 10.0,
             "payoff levels [inf, 0.0] are not finite or too far apart"),
        ],
        ids=["raises-at-w1", "overflows-at-w1"],
    )
    def test_utility_error_at_first_wage(self, u, w1, message):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), u=u)
        with pytest.raises(DomainError) as err:
            two_outcome_linear_analysis(scenario, Contract((w1, 0.0)))
        assert str(err.value) == message

    def test_agrees_with_general_solver_on_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            scenario, contract = linear_two_outcome_scenario(rng)
            report = two_outcome_linear_analysis(scenario, contract)
            response = agent_best_response(scenario, contract)
            assert len(report.best_response.maximizers) == len(response.maximizers)
            for a, b in zip(report.best_response.efforts(), response.efforts()):
                assert abs(a - b) <= 1e-9
            v = scenario.agent.effort_cost
            for e in report.interior_solutions:
                assert abs(report.foc_target - v.d1(e)) <= 1e-10

    def test_roots_match_the_first_order_condition_on_corpus(self):
        """The corpus costs are convex, so a cubic cost adds a minimum of E."""
        rng = np.random.default_rng(2301)
        cases = [linear_two_outcome_scenario(rng) for _ in range(80)]
        cubic = Polynomial((0.0, -0.1, 5.0, -10.0 / 3.0))
        cases.append((_two_outcome(Polynomial((0.2, 0.5)), v=cubic), Contract((4.0, 0.0))))
        for scenario, contract in cases:
            for wages in (contract.wages, contract.wages[::-1]):
                expected, _ = _foc_roots(scenario, Contract(wages))
                report = two_outcome_linear_analysis(scenario, Contract(wages))
                assert _hex(report.interior_solutions) == _hex(expected)

    @pytest.mark.parametrize(
        "p1, wages",
        [
            (Polynomial((0.7, -0.5)), (4.0, 4.0)),
            (Polynomial((0.3, 0.0)), (0.0, 4.0)),
            (Polynomial((0.3, -0.0)), (4.0, 0.0)),
        ],
        ids=["equal-utilities", "zero-slope", "negative-zero-slope"],
    )
    def test_roots_match_the_first_order_condition_across_a_signed_zero(self, p1, wages):
        """target is -0.0 and v'(0.5) = 0.0, so target - v' and the payoff's
        slope differ in the sign of a zero on the grid, but not in the roots."""
        scenario = _two_outcome(p1, v=Polynomial((0.25, -1.0, 1.0)))
        contract = Contract(wages)
        expected, foc = _foc_roots(scenario, contract)
        slope = LinearPayoff.agent(scenario, contract).on_grid(
            effort_tables(scenario), MT_GRID_POINTS, 1
        )
        assert np.array_equal(foc, slope)
        assert np.any(np.signbit(foc) != np.signbit(slope))
        report = two_outcome_linear_analysis(scenario, contract)
        assert _hex(report.interior_solutions) == _hex(expected) == [(0.5).hex()]

    def test_linear_families_classify_by_cost_curvature(self):
        """Affine profile and linear u: risk comes from v'' alone."""
        rng = np.random.default_rng(43)
        for _ in range(20):
            scenario, contract, _ = averse_taxonomy_scenario(rng)
            assert classify_risk(scenario, contract).classification is RiskClass.AVERSE
        for _ in range(20):
            scenario, contract, _ = neutral_taxonomy_scenario(
                rng, constant=bool(rng.random() < 0.5)
            )
            assert classify_risk(scenario, contract).classification is RiskClass.NEUTRAL


class TestClassicalAssumptions:
    def test_linear_u_quadratic_v(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)))
        report = classical_assumptions_report(scenario, (0.0, 4.0))
        assert report.u_increasing.holds
        assert report.u_weakly_concave.holds  # u'' = 0 counts as weakly concave
        assert not report.v_increasing.holds  # v'(0) = 0 fails the strict check
        assert report.v_increasing.witness_point == 0.0
        assert report.v_increasing.witness_value == 0.0
        assert report.v_weakly_convex.holds
        assert not report.inner_work_need
        assert not report.cost_concave_somewhere
        assert not report.classical

    def test_cost_with_interior_minimum_flags_work_need(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), v=Polynomial((0.09, -0.6, 1.0)))
        report = classical_assumptions_report(scenario, (0.0, 4.0))
        assert not report.v_increasing.holds
        assert report.inner_work_need
        assert report.v_weakly_convex.holds

    def test_log_utility_is_classical(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), u=LogAffine(0.0, 1.0, 1.0))
        report = classical_assumptions_report(scenario, (0.0, 10.0))
        assert report.u_increasing.holds
        assert report.u_weakly_concave.holds

    def test_negative_cost_flags_utility_from_effort(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), v=Polynomial((-0.5, 1.0)))
        report = classical_assumptions_report(scenario, (0.0, 4.0))
        assert report.effort_yields_utility

    def test_reversed_wage_range_is_sorted(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), u=LogAffine(0.0, 1.0, 1.0))
        report = classical_assumptions_report(scenario, (10.0, 0.0))
        assert report.wage_range == (0.0, 10.0)
        assert report == classical_assumptions_report(scenario, (0.0, 10.0))

    def test_concave_cost_stretch_is_surfaced(self):
        scenario = _two_outcome(Polynomial((0.2, 0.5)), v=Polynomial((0.0, 1.5, -0.5)))
        report = classical_assumptions_report(scenario, (0.0, 4.0))
        assert report.cost_concave_somewhere
        assert not report.v_weakly_convex.holds
