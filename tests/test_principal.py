"""Principal expectation and backward induction over contract families."""

import numpy as np
import pytest

import contractgame.agent as agent_module
from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
    EffortInterval,
    EffortProfile,
    EnumerationCapExceeded,
    GameSolution,
    DimensionError,
    Polynomial,
    PrincipalPreferences,
    Scenario,
    Tabulated,
    WageGrid,
    agent_best_response,
    principal_expectation,
    solve_game,
)
from contractgame.principal import TIE_BREAK_POLICIES
from game_oracle import enumeration_oracle
from scenario_gen import linear_two_outcome_scenario, reference_scenario

IDENTITY = Polynomial((0.0, 1.0))


class TestPrincipalExpectation:
    def test_reference_value(self):
        scenario, contract = reference_scenario()
        assert principal_expectation(scenario, contract, 0.5) == pytest.approx(
            3.8, abs=1e-12
        )

    def test_wages_equal_outcomes_yield_zero(self):
        scenario, _ = reference_scenario()
        contract = Contract(scenario.outcomes)
        for e in (0.0, 0.5, 1.0):
            assert principal_expectation(scenario, contract, e) == 0.0

    def test_constant_profile_free_labor(self):
        scenario = Scenario(
            outcomes=(10.0, 2.0),
            interval=EffortInterval(0.0, 1.0),
            profile=EffortProfile((Polynomial((0.3,)),)),
            agent=AgentPreferences(IDENTITY, Polynomial((0.0,))),
            principal=PrincipalPreferences(IDENTITY),
        )
        contract = Contract((0.0, 0.0))
        for e in (0.0, 0.25, 1.0):
            assert principal_expectation(scenario, contract, e) == pytest.approx(
                4.4, abs=1e-12
            )


class TestWageGridEnumeration:
    def test_grid_values(self):
        grid = WageGrid(0.0, 6.0, 1.0)
        assert grid.values() == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert WageGrid(0.0, 0.0, 1.0).values() == (0.0,)
        assert WageGrid(0.0, 1.0, 0.4).count() == 3

    def test_grid_values_are_the_nearest_floats_to_the_decimal_steps(self):
        assert WageGrid(0.0, 6.0, 0.2).values()[12] == 2.4
        assert WageGrid(0.0, 6.0, 0.2).values()[10:16] == (
            2.0, 2.2, 2.4, 2.6, 2.8, 3.0
        )
        assert WageGrid(0.0, 1.0, 0.1).values() == (
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
        )
        assert WageGrid(np.float64(0.5), 1.0, np.float64(0.1)).values() == (
            0.5, 0.6, 0.7, 0.8, 0.9, 1.0
        )
        assert WageGrid(0.0, 1.0, 0.1).count() == 11

    def test_invalid_grids(self):
        with pytest.raises(DimensionError):
            WageGrid(0.0, 1.0, 0.0)
        with pytest.raises(DimensionError):
            WageGrid(1.0, 0.0, 0.5)

    def test_family_product(self):
        family = ContractFamily(
            grids=(WageGrid(0.0, 2.0, 1.0), WageGrid(0.0, 1.0, 1.0))
        )
        assert family.size() == 6
        contracts = list(family)
        assert contracts[0] == Contract((0.0, 0.0))
        assert contracts[-1] == Contract((2.0, 1.0))

    def test_cap_enforced(self):
        family = ContractFamily(
            grids=(WageGrid(0.0, 100.0, 0.001),), cap=1000
        )
        with pytest.raises(EnumerationCapExceeded):
            list(family)

    def test_family_shape_validation(self):
        with pytest.raises(DimensionError):
            ContractFamily()
        with pytest.raises(DimensionError):
            ContractFamily(contracts=())


def _reference_family():
    return ContractFamily(
        grids=(WageGrid(0.0, 6.0, 1.0), WageGrid(0.0, 0.0, 1.0))
    )


class TestSolveGame:
    def test_reference_family_matches_hand_enumeration(self):
        """Closed form: e*(w1) = w1/8, payoff = 2 + (w1/16 + 0.2)(8 - w1)."""
        scenario, _ = reference_scenario()
        solution = solve_game(scenario, _reference_family())
        assert not solution.all_rejected
        assert solution.contract.wages == (2.0, 0.0)
        assert solution.effort == pytest.approx(0.25, abs=1e-9)
        assert solution.principal_payoff == pytest.approx(3.95, abs=1e-9)
        payoffs = {
            w1: 2.0 + (w1 / 16.0 + 0.2) * (8.0 - w1) for w1 in range(7)
        }
        assert max(payoffs.values()) == pytest.approx(
            solution.principal_payoff, abs=1e-9
        )

    def test_reference_family_matches_enumeration_oracle(self):
        scenario, _ = reference_scenario()
        solution = solve_game(scenario, _reference_family())
        contract, effort, payoff = enumeration_oracle(scenario, _reference_family())
        assert solution.contract == contract
        assert abs(solution.principal_payoff - payoff) <= 1e-6
        assert abs(solution.effort - effort) <= 1e-4

    def test_all_candidates_rejected(self):
        scenario, _ = reference_scenario()
        demanding = Scenario(
            outcomes=scenario.outcomes,
            interval=scenario.interval,
            profile=scenario.profile,
            agent=AgentPreferences(
                scenario.agent.utility, scenario.agent.effort_cost, 100.0
            ),
            principal=scenario.principal,
        )
        solution = solve_game(demanding, _reference_family())
        assert solution.all_rejected
        assert solution.contract is None
        assert solution.principal_payoff is None

    def test_singleton_family(self):
        scenario, contract = reference_scenario()
        solution = solve_game(scenario, ContractFamily(contracts=(contract,)))
        assert solution.contract == contract
        assert solution.effort == pytest.approx(0.5, abs=1e-9)
        assert solution.agent_payoff == pytest.approx(1.3, abs=1e-9)
        assert solution.principal_payoff == pytest.approx(3.8, abs=1e-9)

    def test_superset_family_never_does_worse(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            scenario, _ = linear_two_outcome_scenario(rng, reservation=-1e9)
            wages = [
                tuple(float(w) for w in rng.uniform(0.0, 6.0, size=2))
                for _ in range(30)
            ]
            small = ContractFamily(contracts=tuple(Contract(w) for w in wages[:10]))
            large = ContractFamily(contracts=tuple(Contract(w) for w in wages))
            p_small = solve_game(scenario, small).principal_payoff
            p_large = solve_game(scenario, large).principal_payoff
            assert p_large >= p_small - 1e-12

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(52)
        scenario, _ = linear_two_outcome_scenario(rng, reservation=-1e9)
        wages = tuple(
            Contract(tuple(float(w) for w in rng.uniform(0.0, 6.0, size=2)))
            for _ in range(50)
        )
        family = ContractFamily(contracts=wages)
        first = solve_game(scenario, family)
        second = solve_game(scenario, family)
        assert first == second

    def test_contract_ties_break_lexicographically(self):
        scenario, _ = reference_scenario()
        # wages swap across outcomes yield different payoffs, so tie via
        # duplicated candidates instead
        family = ContractFamily(
            contracts=(Contract((4.0, 0.0)), Contract((4.0, 0.0)))
        )
        solution = solve_game(scenario, family)
        assert solution.contract.wages == (4.0, 0.0)

    def test_unknown_policy_rejected(self):
        scenario, contract = reference_scenario()
        with pytest.raises(ValueError):
            solve_game(
                scenario, ContractFamily(contracts=(contract,)), tie_break="best"
            )


class TestTieBreakPolicies:
    def _flat_scenario(self):
        # E is constant (u(w1)-u(w2) = 4, Mt = 0.5*4 - 2 = 0) while the
        # principal strictly prefers high effort: P(e) = 2e + 2.8
        scenario = Scenario(
            outcomes=(10.0, 2.0),
            interval=EffortInterval(0.0, 1.0),
            profile=EffortProfile((Polynomial((0.2, 0.5)),)),
            agent=AgentPreferences(IDENTITY, Polynomial((0.0, 2.0))),
            principal=PrincipalPreferences(IDENTITY),
        )
        return scenario, ContractFamily(contracts=(Contract((4.0, 0.0)),))

    def test_principal_favorable_picks_best_effort(self):
        scenario, family = self._flat_scenario()
        solution = solve_game(scenario, family)
        assert solution.best_response.constant_expectation
        assert solution.effort == 1.0
        assert solution.principal_payoff == pytest.approx(4.8, abs=1e-12)

    def test_agent_lowest_effort(self):
        scenario, family = self._flat_scenario()
        solution = solve_game(scenario, family, tie_break="agent-lowest-effort")
        assert solution.effort == 0.0
        assert solution.principal_payoff == pytest.approx(2.8, abs=1e-12)

    def test_agent_highest_effort(self):
        scenario, family = self._flat_scenario()
        solution = solve_game(scenario, family, tie_break="agent-highest-effort")
        assert solution.effort == 1.0


class TestOracleEquivalenceCorpus:
    def test_random_families_match_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            scenario, _ = linear_two_outcome_scenario(rng, reservation=-1e9)
            contracts = tuple(
                Contract(tuple(float(w) for w in rng.uniform(0.0, 8.0, size=2)))
                for _ in range(int(rng.integers(20, 80)))
            )
            family = ContractFamily(contracts=contracts)
            solution = solve_game(scenario, family)
            contract, _, payoff = enumeration_oracle(scenario, family)
            assert solution.contract == contract
            assert abs(solution.principal_payoff - payoff) <= 1e-6


def _game(outcomes, components, cost, grids, reservation=0.0):
    scenario = Scenario(
        outcomes=outcomes,
        interval=EffortInterval(0.0, 1.0),
        profile=EffortProfile(tuple(components)),
        agent=AgentPreferences(IDENTITY, cost, reservation),
        principal=PrincipalPreferences(IDENTITY),
    )
    return scenario, ContractFamily(grids=grids)


def _per_contract_solve(scenario, family, policy):
    """solve_game written as a plain loop: one agent_best_response per contract."""
    chosen = None
    for contract in family:
        response = agent_best_response(scenario, contract)
        if not response.accepted:
            continue
        efforts = response.efforts()
        if policy == "agent-lowest-effort":
            effort = efforts[0]
        elif policy == "agent-highest-effort":
            effort = efforts[-1]
        else:
            effort = efforts[0]
            for e in efforts[1:]:
                if principal_expectation(scenario, contract, e) > principal_expectation(
                    scenario, contract, effort
                ):
                    effort = e
        value = principal_expectation(scenario, contract, effort)
        if chosen is None or (-value, contract.wages) < (
            -chosen.principal_payoff, chosen.contract.wages
        ):
            chosen = GameSolution(
                False, contract, effort, value, response.optimal_expectation,
                policy, response,
            )
    return chosen or GameSolution(True, None, None, None, None, policy, None)


# ((e - 0.25)(e - 0.75))^2 + e: with p1 = 0.2 + 0.5e, contracts whose
# utility delta is 2 have twin equal peaks at e = 0.25 and e = 0.75, and
# the best of them for the principal depends on the tie-break policy
_TWIN_COST = Polynomial((0.03515625, 0.625, 1.375, -2.0, 1.0))
# a decreasing cost with a notch narrower than a scan cell at e = 0.5: the
# scan peak there brackets no sign change of E', so golden-section runs
_NOTCH_COST = Tabulated(
    (0.0, 0.4999, 0.5, 0.5001, 1.0), (1.0, 0.5001, 0.49, 0.4999, 0.0)
)
_SHARED_STEP = (WageGrid(0.0, 4.0, 0.5), WageGrid(0.0, 2.0, 0.5))
_BATCHING_FAMILIES = {
    "fixture-shared-step": lambda: (
        reference_scenario()[0],
        ContractFamily(grids=(WageGrid(0.0, 3.0, 0.25), WageGrid(0.0, 1.5, 0.25))),
    ),
    "tabulated-profile": lambda: _game(
        (10.0, 2.0),
        [Tabulated((0.0, 0.25, 0.5, 0.75, 1.0), (0.1, 0.3, 0.4, 0.6, 0.65))],
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 4.0, 0.25), WageGrid(0.0, 1.5, 0.25)),
    ),
    "constant-profile-flat": lambda: _game(
        (10.0, 2.0), [Polynomial((0.3,))], Polynomial((0.0,)), _SHARED_STEP
    ),
    "twin-peaks": lambda: _game(
        (10.0, 2.0),
        [Polynomial((0.2, 0.5))],
        _TWIN_COST,
        (WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 2.0, 0.5)),
    ),
    "notch-golden-section": lambda: _game(
        (10.0, 2.0), [Polynomial((0.2, 0.5))], _NOTCH_COST, _SHARED_STEP
    ),
    "rejections": lambda: _game(
        (10.0, 2.0),
        [Polynomial((0.2, 0.5))],
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 4.0, 0.25), WageGrid(0.0, 1.5, 0.25)),
        reservation=1.5,
    ),
    "three-outcomes-zero-deltas": lambda: _game(
        (10.0, 5.0, 0.0),
        [Polynomial((0.2, 0.3)), Polynomial((0.3, -0.1))],
        Polynomial((0.0, 0.0, 1.0)),
        (WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 1.0, 0.5)),
    ),
}


class TestFamilyBatching:
    """solve_game shares grids and slope roots across contracts; results must not move."""

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    @pytest.mark.parametrize("name", sorted(_BATCHING_FAMILIES))
    def test_equals_per_contract_solves(self, name, policy, monkeypatch):
        scenario, family = _BATCHING_FAMILIES[name]()
        calls = {"rows": 0, "golden": 0, "snapped": 0}

        class CountingRoots(agent_module.SlopeRoots):
            __slots__ = ()

            def __init__(self, *args):
                calls["rows"] += 1
                super().__init__(*args)

            def snap(self, a, b, run):
                root = super().snap(a, b, run)
                calls["snapped"] += root is not None
                return root

        golden = agent_module._golden_max

        def counting_golden(*args):
            calls["golden"] += 1
            return golden(*args)

        monkeypatch.setattr(agent_module, "SlopeRoots", CountingRoots)
        monkeypatch.setattr(agent_module, "_golden_max", counting_golden)
        batched = solve_game(scenario, family, policy)
        batched_calls = dict(calls)
        assert batched == _per_contract_solve(scenario, family, policy)
        # utility-delta rows repeat, so fewer root searches than contracts
        assert batched_calls["rows"] < family.size()
        if name == "twin-peaks":
            assert batched_calls["snapped"] > 0
        if name == "notch-golden-section":
            assert batched_calls["golden"] > 0
        if name == "constant-profile-flat":
            assert batched.best_response.constant_expectation
        if name == "rejections":
            rejected = sum(
                not agent_best_response(scenario, c).accepted for c in family
            )
            assert 0 < rejected < family.size()

    def test_full_delta_row_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(agent_module, "DELTA_ROW_MEMO", 3)
        scenario, family = _BATCHING_FAMILIES["fixture-shared-step"]()
        for policy in TIE_BREAK_POLICIES:
            assert solve_game(scenario, family, policy) == _per_contract_solve(
                scenario, family, policy
            )
