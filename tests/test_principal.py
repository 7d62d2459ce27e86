"""Principal expectation and backward induction over contract families."""

import functools
import math
import warnings

import numpy as np
import pytest

import contractgame.agent as agent_module
import contractgame.principal as principal_module
from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
    EffortInterval,
    EffortProfile,
    EnumerationCapExceeded,
    ExpAffine,
    LogAffine,
    GameSolution,
    DimensionError,
    DomainError,
    Polynomial,
    Power,
    PrincipalPreferences,
    Scenario,
    Tabulated,
    WageGrid,
    agent_best_response,
    principal_expectation,
    solve_game,
)
from contractgame.agent import TAU_EXPECTATION, LinearPayoff, _bisect_root, snap_root
from contractgame.curves import Curve
from contractgame.principal import TIE_BREAK_POLICIES
from contractgame.tables import (
    CELLS, MT_GRID_POINTS, SCAN_GRID_POINTS, VALIDATION_GRID_POINTS, effort_tables,
)
from game_oracle import Row, enumeration_oracle, row_build, row_efforts
from principal_cases import (
    BATCHING_FAMILIES, ERROR_CASES, IDENTITY, RISING, SCREEN_FAMILIES, SHARED_STEP,
    tied_contracts, twin_peak_contracts, unit_scenario,
)
from scenario_gen import game_corpus, linear_two_outcome_scenario, reference_scenario


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


def _per_contract_solve(scenario, family, policy, responses=None):
    """solve_game written as a plain loop: one agent_best_response per contract.

    responses, a dict, keeps each contract's response across calls.
    """
    chosen = None
    for contract in family:
        if responses is None:
            response = agent_best_response(scenario, contract)
        else:
            if contract not in responses:
                responses[contract] = agent_best_response(scenario, contract)
            response = responses[contract]
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


class TestFamilyBatching:
    """solve_game shares grids and row screens across contracts; results must not move."""

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    @pytest.mark.parametrize("name", sorted(BATCHING_FAMILIES))
    def test_equals_per_contract_solves(self, name, policy, monkeypatch):
        scenario, family = BATCHING_FAMILIES[name]()
        calls = {"rows": 0, "golden": 0, "snapped": 0}
        build, bisect = principal_module._build_rows, principal_module.bisect_brackets
        golden = agent_module._golden_max

        def counting_build(scenario, tables, deltas, base_size):
            calls["rows"] += len(deltas)
            return build(scenario, tables, deltas, base_size)

        def counting_bisect(g, a, b, snap):
            # the scan-peak brackets the row build snaps onto a root
            roots = bisect(g, a, b, snap)
            calls["snapped"] += int((snap & ~np.isnan(roots)).sum())
            return roots

        def counting_golden(*args):
            calls["golden"] += 1
            return golden(*args)

        monkeypatch.setattr(principal_module, "_build_rows", counting_build)
        monkeypatch.setattr(principal_module, "bisect_brackets", counting_bisect)
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

    @pytest.mark.parametrize(
        "outcomes, wages, winner",
        [
            # each pair of contracts has a new row that sorts before the
            # rows of the pairs before it
            ((2.5, 2.0), [w for k in range(8, 0, -1) for w in (k * 0.25, (k - 1) * 0.25)], 0.0),
            # the first contract wins, and its row is met again only there
            ((10.0, 2.0), [2.0] + [k * 0.25 for k in range(7, -1, -1) for _ in range(2)], 2.0),
        ],
        ids=["last-wins", "first-wins"],
    )
    def test_each_row_is_built_once(self, outcomes, wages, winner, monkeypatch):
        """One _build_rows call holds each of the 9 distinct rows once, the
        winner's included; in blocks of two contracts the result is the same."""
        built = []
        build = principal_module._build_rows

        def counting_build(scenario, tables, deltas, base_size):
            built.append(deltas.tolist())
            return build(scenario, tables, deltas, base_size)

        monkeypatch.setattr(principal_module, "_build_rows", counting_build)
        scenario = unit_scenario(outcomes, RISING, Polynomial((0.0, 0.0, 2.0)))
        family = ContractFamily(contracts=tuple(Contract((w, 0.0)) for w in wages))
        for chunk in (principal_module.SCREEN_CHUNK, 2):
            monkeypatch.setattr(principal_module, "SCREEN_CHUNK", chunk)
            for policy in TIE_BREAK_POLICIES:
                built.clear()
                got = solve_game(scenario, family, policy)
                assert got == _per_contract_solve(scenario, family, policy)
                assert got.contract == Contract((winner, 0.0))
                if chunk > 2:
                    assert built == [[[k * 0.25] for k in range(9)]]


# the families whose every contract the screen settles
_ALL_SCREENED = {
    "huge-base", "all-rejected", "flat-step", "plateau-peak", "spread-just-above-flat-tolerance",
}


def _count_screening(monkeypatch):
    """Counts of contracts the screen settles and of agent_best_response calls.

    The calls are the one-by-one solves: a screened winner's response
    comes from its row, with no solve of its own.
    """
    counts = {"screened": 0, "solved": 0}
    screen, solve = principal_module._screen, principal_module.agent_best_response

    def counting_screen(*args):
        out = screen(*args)
        counts["screened"] += int(out[0].sum())
        return out

    def counting_solve(*args):
        counts["solved"] += 1
        return solve(*args)

    monkeypatch.setattr(principal_module, "_screen", counting_screen)
    monkeypatch.setattr(principal_module, "agent_best_response", counting_solve)
    return counts


def _outcome(solve):
    """("solved", repr of the solution) or (error type, message)."""
    try:
        return "solved", repr(solve())
    except Exception as err:
        return type(err).__name__, str(err)


class TestScreenConfirm:
    """solve_game settles most contracts from per-row tables; results must not move."""

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    @pytest.mark.parametrize("name", sorted(SCREEN_FAMILIES))
    def test_equals_per_contract_solves(self, name, policy, monkeypatch):
        scenario, family = SCREEN_FAMILIES[name]()
        counts = _count_screening(monkeypatch)
        screened = solve_game(scenario, family, policy)
        expected = _per_contract_solve(scenario, family, policy)
        assert screened == expected
        assert repr(screened) == repr(expected)
        # every contract is screened or solved on its own, exactly once
        assert counts["screened"] + counts["solved"] == family.size()
        assert counts["screened"] > 0
        if name in _ALL_SCREENED:
            assert counts["screened"] == family.size()
        else:
            # some contract is left to the one-by-one loop
            assert counts["solved"] > 0
        if name == "plateau-peak":
            assert len(screened.best_response.maximizers) > 1
        if name == "all-rejected":
            assert screened.all_rejected

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_winner_is_not_solved(self, policy, monkeypatch):
        """The screen settles every contract, the winner too: nothing is
        solved one by one, and the winner's response comes from its row."""
        scenario, family = BATCHING_FAMILIES["fixture-shared-step"]()
        solved = []
        solve = principal_module.agent_best_response

        def counting_solve(scenario, contract):
            solved.append(contract)
            return solve(scenario, contract)

        monkeypatch.setattr(principal_module, "agent_best_response", counting_solve)
        got = solve_game(scenario, family, policy)
        assert solved == []
        assert repr(got) == repr(_per_contract_solve(scenario, family, policy))

    @pytest.mark.parametrize("name", sorted(ERROR_CASES))
    def test_errors_match_per_contract_solves(self, name):
        scenario, family = ERROR_CASES[name]()
        for policy in TIE_BREAK_POLICIES:
            got = _outcome(lambda: solve_game(scenario, family, policy))
            assert got == _outcome(lambda: _per_contract_solve(scenario, family, policy))
        solved = name in (
            "zero-delta-component-undefined-on-scan",
            "principal-undefined-where-rejected",
            "principal-value-nan",
        )
        assert (got[0] == "solved") == solved
        if name == "principal-undefined-where-rejected":
            assert "all_rejected=False" in got[1]
        if name == "principal-value-nan":
            assert "wages=(1.0, 1.0, 1.0)" in got[1] and "principal_payoff=nan" in got[1]

    def test_utility_array_call_that_raises_falls_back_to_scalar_calls(self):
        """u is tabulated on [0, 3], so the array call on the family's wages
        raises; the scalar calls mark only the wages above 3, and contract 21,
        (3.5, 0), raises as its own solve does."""
        scenario = unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)),
            utility=Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 1.5, 1.8)),
        )
        family = ContractFamily(grids=(WageGrid(0.0, 4.0, 0.5), WageGrid(0.0, 1.0, 0.5)))
        assert list(family)[21] == Contract((3.5, 0.0))
        expected = ("DomainError", "tabulated curve defined on [0.0, 3.0]; got t=3.5")
        for policy in TIE_BREAK_POLICIES:
            got = _outcome(lambda: solve_game(scenario, family, policy))
            assert got == _outcome(lambda: _per_contract_solve(scenario, family, policy))
            assert got == expected

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_flat_rejected_family_is_solved_one_by_one(self, policy, monkeypatch):
        """The fixture economics with u = w + 1e12: all 861 contracts are flat
        (a spread of a few units, within 1e-9 of 1e12), so the screen leaves
        them all, and a reservation above every optimum rejects them all."""
        scenario = unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)), reservation=2e12,
            utility=Polynomial((1e12, 1.0)),
        )
        family = ContractFamily(grids=(WageGrid(0.0, 4.0, 0.1), WageGrid(0.0, 2.0, 0.1)))
        assert family.size() == 861
        counts = _count_screening(monkeypatch)
        got = solve_game(scenario, family, policy)
        assert got.all_rejected
        assert counts == {"screened": 0, "solved": 861}
        assert repr(got) == repr(_per_contract_solve(scenario, family, policy))

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_flat_accepted_winner_is_solved_once(self, policy, monkeypatch):
        """The same 861 flat contracts under a reservation every one of them
        meets: the winner is one the loop solved, and its solve is kept."""
        scenario = unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)), reservation=-2e12,
            utility=Polynomial((1e12, 1.0)),
        )
        family = ContractFamily(grids=(WageGrid(0.0, 4.0, 0.1), WageGrid(0.0, 2.0, 0.1)))
        expected = _per_contract_solve(scenario, family, policy)
        counts = _count_screening(monkeypatch)
        got = solve_game(scenario, family, policy)
        assert not got.all_rejected and got.best_response.constant_expectation
        assert counts == {"screened": 0, "solved": 861}
        assert got == expected
        assert repr(got) == repr(expected)

    def test_utility_undefined_at_every_wage(self, monkeypatch):
        """No contract of the chunk has finite levels: no row is built, and the
        first contract's own solve raises the loop's error."""
        scenario = unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)), utility=Power(1.0, 0.5, -100.0)
        )
        family = ContractFamily(grids=SHARED_STEP)
        built = []
        build = principal_module._build_rows

        def counting_build(scenario, tables, deltas, base_size):
            built.extend(deltas)
            return build(scenario, tables, deltas, base_size)

        monkeypatch.setattr(principal_module, "_build_rows", counting_build)
        for policy in TIE_BREAK_POLICIES:
            got = _outcome(lambda: solve_game(scenario, family, policy))
            assert got == _outcome(lambda: _per_contract_solve(scenario, family, policy))
            assert got == ("DomainError", "power curve needs t + -100.0 >= 0; got t=0.0")
        assert built == []

    def test_small_chunks_equal_per_contract_solves(self, monkeypatch):
        monkeypatch.setattr(principal_module, "SCREEN_CHUNK", 7)
        calls = {"chunks": 0}
        screen = principal_module._screen

        def counting_screen(*args):
            calls["chunks"] += 1
            return screen(*args)

        monkeypatch.setattr(principal_module, "_screen", counting_screen)
        for make in (BATCHING_FAMILIES["fixture-shared-step"], tied_contracts):
            scenario, family = make()
            responses = {}
            for policy in TIE_BREAK_POLICIES:
                calls["chunks"] = 0
                got = solve_game(scenario, family, policy)
                assert got == _per_contract_solve(scenario, family, policy, responses)
                assert calls["chunks"] == -(-family.size() // 7)


class TestGeneratedCorpus:
    def test_wage_grid_corpus_equals_per_contract_solves(self):
        """40 generated documents of every kind, each with a shared-step wage grid."""
        corpus = game_corpus(40, seed=6101)
        rejected = 0
        for _, scenario, family in corpus:
            responses = {}
            for policy in TIE_BREAK_POLICIES:
                got = solve_game(scenario, family, policy)
                expected = _per_contract_solve(scenario, family, policy, responses)
                assert repr(got) == repr(expected)
            rejected += any(not r.accepted for r in responses.values())
        assert rejected > 0


class _ScalarOnlyRise(Curve):
    """p(e) = 0.2 + 0.5e, whose scalar d1 raises above e = 0.9.

    Its class is none of the five families, so the row build makes every
    slope call on it a scalar one.
    """

    family = "scalar-only"

    def eval(self, t):
        return 0.2 + 0.5 * t

    def d1(self, t):
        if not isinstance(t, np.ndarray) and t > 0.9:
            raise DomainError(f"no slope at {t}")
        return 0.5 + 0.0 * t

    def d2(self, t):
        return 0.0 * t


def _family_rows(scenario, family):
    """The distinct utility-delta rows of the family's contracts, as solve_game meets them."""
    arrays = principal_module._FamilyArrays(scenario, family)
    index = arrays.chunk(0, arrays.size)
    levels = arrays.matrix(arrays.u, index)
    deltas = levels[:, :-1] - levels[:, -1:]
    ok = np.isfinite(levels).all(axis=1) & np.isfinite(deltas).all(axis=1)
    return [tuple(d) for d in np.unique(deltas[ok], axis=0).tolist()]


def _cost_size(scenario):
    tables = effort_tables(scenario)

    @functools.cache
    def cost_size():
        v = tables.array(scenario.agent.effort_cost, SCAN_GRID_POINTS)
        return float(max(v.max(), -v.min()))

    return cost_size


def _same_row(got, expected):
    """The same None-ness, field bits and points bytes."""
    if got is None or expected is None:
        return got is None and expected is None
    fields = ("top", "span", "size")
    return (
        np.array([getattr(got, f) for f in fields]).tobytes()
        == np.array([getattr(expected, f) for f in fields]).tobytes()
        and got.points.shape == expected.points.shape
        and got.points.dtype == expected.points.dtype
        and got.points.tobytes() == expected.points.tobytes()
    )


def _built_rows(scenario, tables, rows, base_size) -> list:
    """_build_rows on the delta rows (tuples), split into a Row per row, or
    None where the row has no screen (infinite size, and no points)."""
    deltas = np.array(rows, dtype=float).reshape(len(rows), scenario.n_outcomes - 1)
    stats, owner, points = principal_module._build_rows(scenario, tables, deltas, base_size)
    assert stats.shape == (3, len(rows)) and (np.diff(owner) >= 0).all()
    offsets = np.searchsorted(owner, np.arange(len(rows) + 1))
    got = []
    for r, (top, span, size) in enumerate(stats.T.tolist()):
        start, stop = offsets[r], offsets[r + 1]
        assert (size == math.inf) == (start == stop), (top, span, size)
        got.append(None if size == math.inf else Row(top, span, size, points[:, start:stop]))
    return got


def _row_cases():
    """(scenario, family, rows, base_size) per family of the screen, batching,
    error and generated corpora, plus rows whose tables raise and rows whose
    scalar slope raises (family None, base_size 0)."""
    families = [make() for make in SCREEN_FAMILIES.values()]
    families += [make() for make in BATCHING_FAMILIES.values()]
    families += [make() for make in ERROR_CASES.values()]
    families += [(scenario, family) for _, scenario, family in game_corpus(240, seed=6101)]
    # linear costs with a notch or bump narrower than a scan step at random
    # places, mostly far below the rows' tops: open brackets where the
    # bound alone would prune
    rng = np.random.default_rng(6102)
    for _ in range(12):
        at, width = rng.uniform(0.02, 0.98), 10.0 ** rng.uniform(-5.0, -2.5)
        slope, depth = rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, -1.0)
        knots = (0.0, at - width, at, at + width, 1.0)
        levels = [0.5 + slope * k for k in knots]
        levels[2] -= depth
        rising = Polynomial((rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.5), rng.uniform(-0.3, 0.0)))
        families.append(
            (unit_scenario((10.0, 2.0), [rising], Tabulated(knots, tuple(levels))), ContractFamily(grids=SHARED_STEP))
        )
    cases = [
        (scenario, family, _family_rows(scenario, family),
         principal_module._FamilyArrays(scenario, family).base_size())
        for scenario, family in families
    ]
    # p2 = 0.1 ln(e - 0.5) is undefined on the lower half of the scan
    undefined = unit_scenario(
        (10.0, 2.0, 2.0),
        [Polynomial((0.2, 0.5)), LogAffine(0.0, 0.1, -0.5)],
        Polynomial((0.0, 0.0, 2.0)),
    )
    cases.append((undefined, None, [(1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.0, 0.25)], 0.0))
    # the slope 0.5 d - 4e has its root at d / 8: beyond 0.9 its scalar call raises
    scalar_only = unit_scenario((10.0, 2.0), [_ScalarOnlyRise()], Polynomial((0.0, 0.0, 2.0)))
    cases.append((scalar_only, None, [(1.0,), (4.0,), (7.5,), (7.9,), (-1.0,)], 0.0))
    # h = 0.2 d + 0.5 d e - 1e308 is finite, but 2 max |v| is not
    huge_cost = unit_scenario((10.0, 2.0), RISING, Polynomial((1e308,)))
    cases.append((huge_cost, None, [(1.0,), (-3.0,)], 0.0))
    return cases


def _kept(scenario, tables, rows, base_size) -> np.ndarray:
    """(rows x CELLS): the cells _cells keeps of each row, all of a row it leaves whole."""
    deltas = np.array(rows, dtype=float)
    return principal_module._cells(scenario, tables, deltas, deltas != 0.0, base_size)[0]


def _in_kept_cells(x, kept, edges) -> np.ndarray:
    """Whether each effort lies in a kept cell, edges included."""
    x = np.asarray(x, dtype=float)
    below = np.clip(np.searchsorted(edges, x, side="left") - 1, 0, CELLS - 1)
    above = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, CELLS - 1)
    return kept[below] | kept[above]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestBatchedRowBuild:
    """_build_rows gives each row the row searching it alone gives, or its pruned part.

    tests/game_oracle.row_build is the full per-row reference.  A row is
    None exactly where the reference is; a row that takes the full build
    is the reference bit for bit; a pruned row has its top, a span no
    larger, a size no smaller, and its points in the kept cells; and the
    screen decides every contract as the full build's screen, or the
    contract's own solve, does.
    """

    def test_rows_equal_the_per_row_build_on_their_kept_cells(self, monkeypatch):
        fallbacks = [0]
        scalar = principal_module._Slopes.scalar

        def counting_scalar(self, row, x):
            fallbacks[0] += 1
            return scalar(self, row, x)

        monkeypatch.setattr(principal_module._Slopes, "scalar", counting_scalar)
        why_none = {}
        counts = {"full": 0, "pruned": 0, "open bracket in a pruned row": 0}
        cells = [0, 0]  # (row, cell) pairs of the pruned rows, and those kept
        built = flat_steps = 0
        for scenario, _, rows, base_size in _row_cases():
            if not rows:
                continue
            tables, cost_size = effort_tables(scenario), _cost_size(scenario)
            edges = tables.grid(CELLS + 1)
            got = _built_rows(scenario, tables, rows, base_size)
            assert len(got) == len(rows)
            for deltas, row, kept in zip(rows, got, _kept(scenario, tables, rows, base_size)):
                expected, why = row_build(scenario, tables, deltas, cost_size)
                why_none[why] = why_none.get(why, 0) + 1
                built += 1
                assert (row is None) == (expected is None), (scenario, deltas, why)
                if why == "open bracket" and not kept.all():
                    # the build sees every open bracket of the search: each
                    # lies in the kept cells
                    _, open_brackets = row_efforts(scenario, tables, deltas)
                    assert open_brackets
                    for a, b in open_brackets:
                        assert (kept & (edges[:-1] < b) & (edges[1:] > a)).any(), (scenario, deltas)
                    counts["open bracket in a pruned row"] += 1
                if _same_row(row, expected):
                    counts["full"] += row is not None
                    continue
                # a pruned row: its size is the enclosures' bound
                assert not kept.all()
                counts["pruned"] += 1
                cells[0] += CELLS
                cells[1] += int(kept.sum())
                efforts, _ = row_efforts(scenario, tables, deltas)
                payoff = LinearPayoff(scenario, (*deltas, 0.0), scenario.agent.effort_cost)
                h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
                flat_steps += bool((h[1:] == h[:-1]).any())
                assert _bits(row.top) == _bits(h.max()) == _bits(expected.top)
                assert row.span <= h.max() - h.min()
                assert row.size >= expected.size
                inside = _in_kept_cells(efforts, kept, edges)
                assert _bits(row.points) == _bits(np.ascontiguousarray(expected.points[:, inside]))
        assert built > 5000
        # most rows are pruned, and to a small part of their cells
        assert counts["pruned"] > 3 * counts["full"], counts
        assert counts["open bracket in a pruned row"] > 0, counts
        assert cells[1] < 0.2 * cells[0], cells
        # rows whose h has equal neighbours on the scan are pruned too
        assert flat_steps > 0
        # the ways a row can have no screen are met, and the guard falls back
        assert {None, "raises", "open bracket", "not finite"} <= set(why_none), why_none
        assert fallbacks[0] > 0

    def test_rows_flat_at_the_cell_edges_keep_every_cell(self):
        """A row whose h at the cell edges spans at most tau prunes no cell.

        Each cell's bound U is at least h at its own edges, so at least
        min h >= L - tau, above the pruning line L - tau - margin.  tau
        here is a lower bound of _cells' own, TAU_EXPECTATION max(1, Z)
        with Z >= base_size + max |h| at the edges."""
        flat = {"constant-profile-flat": 0, "huge base": 0}
        constant = BATCHING_FAMILIES["constant-profile-flat"]()[0]
        for scenario, _, rows, base_size in _row_cases():
            if not rows:
                continue
            tables = effort_tables(scenario)
            kept = _kept(scenario, tables, rows, base_size)
            for deltas, keep in zip(rows, kept):
                payoff = LinearPayoff(scenario, (*deltas, 0.0), scenario.agent.effort_cost)
                try:
                    h = payoff.on_grid(tables, CELLS + 1, 0)
                except Exception:
                    continue
                tau = TAU_EXPECTATION * max(1.0, base_size + np.abs(h).max())
                if not h.max() - h.min() <= tau:
                    continue
                flat["constant-profile-flat"] += scenario == constant
                flat["huge base"] += base_size >= 1e12
                assert keep.all(), (scenario, deltas)
        assert flat["constant-profile-flat"] > 0 and flat["huge base"] > 0, flat

    def test_screen_decides_as_the_full_build(self, monkeypatch):
        """Every contract the screen settles from pruned rows or from full
        ones gets the same acceptance and value from both, or, where only
        one settles it (a pruned row's span is a lower bound), from its own
        solve."""
        build = principal_module._build_rows
        for scenario, family, rows, base_size in _row_cases():
            if family is None or not rows:
                continue
            tables = effort_tables(scenario)
            # no cell is pruned under an infinite tie tolerance
            assert _kept(scenario, tables, rows, math.inf).all()
            arrays = principal_module._FamilyArrays(scenario, family)
            index = arrays.chunk(0, arrays.size)

            def screen(size, policy):
                """_screen with its rows built under the base size size."""
                monkeypatch.setattr(
                    principal_module, "_build_rows", lambda s, t, deltas, _: build(s, t, deltas, size)
                )
                return principal_module._screen(scenario, tables, arrays, index, policy)

            for policy in TIE_BREAK_POLICIES:
                pruned, full = (screen(size, policy) for size in (base_size, math.inf))
                both = pruned[0] & full[0]
                assert np.array_equal(pruned[1][both], full[1][both])
                assert _bits(pruned[2][both]) == _bits(full[2][both])
                for k in np.flatnonzero(pruned[0] != full[0]).tolist():
                    screen = pruned if pruned[0][k] else full
                    response, _, value = principal_module._respond(
                        scenario, arrays.contract(index[k]), policy
                    )
                    assert screen[1][k] == response.accepted
                    assert _bits(screen[2][k]) == _bits(math.nan if value is None else value)


def _nonlinear_game():
    """A 3-outcome scenario with exp-affine, power and log-affine curves on
    a 7^3 wage grid, as perfbench/gen._nonlinear_family makes them (its
    parameters at mid-range): no two contracts share a delta row."""
    g, p_lo, p_hi = 1.0, 0.15, 0.4
    beta = (p_hi - p_lo) / (1.0 - math.exp(-g))
    p2 = Power(0.2 / 1.5**0.6, 0.6, 0.5)
    u = LogAffine(0.0, 1.4, 1.0)
    curvature = (u.eval(8.0) - u.eval(0.0)) * (beta * g * g + abs(p2.d2(0.0)))
    scenario = unit_scenario(
        (14.0, 6.5, 1.0), [ExpAffine(p_lo + beta, -beta, -g), p2], Power(0.6 * curvature, 2.0, 0.15),
        reservation=u.eval(0.0) + 0.3 * (u.eval(4.0) - u.eval(0.0)), utility=u,
    )
    return scenario, ContractFamily(grids=tuple(WageGrid(0.0, w, w / 6) for w in (8.0, 6.0, 3.0)))


class _NoSlopeError(Polynomial):
    """A polynomial that states no d1 error, so it has an enclosure but no slope enclosure."""

    d1_ulps = math.inf


class TestFirstOrderPruning:
    """_cells prunes a cell by the first-order bound from its edges' h and
    the slope enclosures, where a row's curves all have one."""

    @pytest.mark.parametrize("game", [
        lambda: (reference_scenario()[0],
                 ContractFamily(grids=(WageGrid(0.0, 4.8, 0.05), WageGrid(0.0, 2.0, 0.05)))),
        _nonlinear_game,
    ], ids=["fixture", "nonlinear-3"])
    def test_rows_keep_a_few_cells_and_none_is_built_again(self, game):
        scenario, family = game()
        rows = _family_rows(scenario, family)
        base_size = principal_module._FamilyArrays(scenario, family).base_size()
        tables = effort_tables(scenario)
        deltas = np.array(rows)
        kept, _, _, size, _ = principal_module._cells(scenario, tables, deltas, deltas != 0.0, base_size)
        assert len(rows) > 40 and not kept.all(axis=1).any()
        assert kept.sum() <= 3 * len(rows), kept.sum(axis=1).mean()
        # a row built again in full has the size of its values, not the
        # pruned row's bound
        stats, _, _ = principal_module._build_rows(scenario, tables, deltas, base_size)
        assert _bits(stats[2]) == _bits(size)

    def test_cell_data_bounds_each_curve_on_its_cells(self):
        """_cell_data's factors hold, per cell, the curve's scan between its
        lower and upper bound, and each step of the scan between the least
        and the largest (minus the largest and least in the third row); the
        edge values are the scan's, contiguous."""
        scenario, _ = _nonlinear_game()
        tables = effort_tables(scenario)
        for curve in (*scenario.profile.components, scenario.agent.effort_cost):
            factors, size, _, at_edges, slope, slope_bound = principal_module._cell_data(tables, curve)
            scan = tables.array(curve, SCAN_GRID_POINTS)
            cells = np.lib.stride_tricks.sliding_window_view(scan, _STEP + 1)[::_STEP]
            steps = np.diff(cells, axis=1)
            (upper, lower), (least, largest), (minus_largest, minus_least) = factors[..., None]
            assert (lower <= cells).all() and (cells <= upper).all()
            assert (least <= steps).all() and (steps <= largest).all()
            assert _bits(minus_largest) == _bits(-largest) and _bits(minus_least) == _bits(-least)
            assert at_edges.flags.c_contiguous and _bits(at_edges) == _bits(scan[::_STEP])
            assert size == max(abs(upper).max(), abs(lower).max())
            assert slope_bound == np.maximum(-slope[0], slope[1]).max()

    def test_a_row_without_a_slope_enclosure_keeps_the_zeroth_order_cells(self, monkeypatch):
        """A row of a curve with no slope enclosure keeps exactly the cells
        it keeps when no curve has one; a row without that curve keeps fewer."""
        scenario = unit_scenario(
            (10.0, 6.0, 2.0), [Polynomial((0.2, 0.5)), _NoSlopeError((0.1, 0.3, -0.1))], _QUADRATIC_COST,
        )
        rows = [(d, 0.0) for d in (1.0, 2.0, 3.0, 4.0)] + [(d, 1.5) for d in (1.0, 2.0, 3.0, 4.0)]
        tables = effort_tables(scenario)
        assert tables.enclosure(scenario.profile.components[1]) is not None
        assert tables.enclosure(scenario.profile.components[1], slopes=True) is None
        first_order = _kept(scenario, tables, rows, 0.0)
        enclosure = principal_module.EffortTables.enclosure
        monkeypatch.setattr(
            principal_module.EffortTables, "enclosure",
            lambda self, curve, slopes=False: None if slopes else enclosure(self, curve),
        )
        # fresh tables: _cells keeps what it reads of a curve in its tables
        zeroth_order = _kept(scenario, principal_module.EffortTables(scenario.interval), rows, 0.0)
        assert not zeroth_order.all(axis=1).any()
        assert np.array_equal(first_order[4:], zeroth_order[4:])
        assert (first_order[:4] <= zeroth_order[:4]).all()
        assert first_order[:4].sum() < zeroth_order[:4].sum()


_ST = 1.0 / (SCAN_GRID_POINTS - 1)  # the scan's step on [0, 1]
_STEP = (SCAN_GRID_POINTS - 1) // CELLS  # scan steps per cell
_NO_COST = Polynomial((0.0,))
_QUADRATIC_COST = Polynomial((0.0, 0.0, 2.0))


def _prune_proposed(scenario, rows, base_size):
    """Whether _cells prunes each row before the build checks it."""
    return ~_kept(scenario, effort_tables(scenario), rows, base_size).all(axis=1)


def _fallback_cases():
    """name -> (scenario, rows, base_size, proposed, check): rows that take
    the full build; proposed says whether _cells prunes them first (so a
    check of the build sends them back; None: not asked), and
    check(scenario, tables) asserts the condition that sends them."""
    cases = {}

    # the family holds a contract with u(w_n) = 1e12, so the tie tolerance
    # of the twin-peak row is ~1e3 and no cell is pruned
    scenario, family = twin_peak_contracts()
    cases["twin-peak-fixture"] = (
        scenario, _family_rows(scenario, family),
        principal_module._FamilyArrays(scenario, family).base_size(), False,
        lambda scenario, tables: None,
    )

    def enclosure_is(finite):
        def check(scenario, tables):
            bounds = tables.enclosure(scenario.profile.components[-1])
            assert bounds is not None and np.isfinite(bounds).all() == finite
        return check

    # p = 1e308 (1 + e - e^2) is finite, but its magnitude bound is not
    cases["enclosure-not-finite"] = (
        unit_scenario((10.0, 2.0), [Polynomial((1e308, 1e308, -1e308))], _QUADRATIC_COST),
        [(1e-300,), (-2e-300,)], 0.0, False, enclosure_is(False),
    )
    # a scalar call on p2 = 0.1 ln(e - 0.5) raises on the lower half; so
    # does its table, which leaves the row without a screen (proposed None:
    # _cells never sees a row whose tables raise)
    cases["enclosure-where-a-call-raises"] = (
        unit_scenario((10.0, 2.0, 2.0), [RISING[0], LogAffine(0.0, 0.1, -0.5)], _QUADRATIC_COST),
        [(1.0, 0.5), (2.0, -0.25)], 0.0, None, enclosure_is(False),
    )

    def no_enclosure(scenario, tables):
        assert tables.enclosure(scenario.profile.components[0]) is None

    # a class of no stated error, whose scalar slope raises above e = 0.9
    cases["no-stated-error"] = (
        unit_scenario((10.0, 2.0), [_ScalarOnlyRise()], _QUADRATIC_COST),
        [(1.0,), (7.9,)], 0.0, False, no_enclosure,
    )

    def flat_on_the_scan(scenario, tables):
        for comp in scenario.profile.components:
            assert np.ptp(tables.array(comp, SCAN_GRID_POINTS)) < 1e-15
        assert tables.enclosure(scenario.profile.components[0])[1].max() > 0.8

    # v = e makes h = 0.4 flat for the row 2; the spike (0.3, 0.30002) of
    # height 0.9 lies between two scan points, so h = 0.2 d is flat on the
    # scan, though the enclosure of the spike's cell reaches 0.9 d
    spike = Tabulated((0.0, 0.3, 0.30001, 0.30002, 1.0), (0.2, 0.2, 0.9, 0.2, 0.2))
    cases["flat-looking"] = (
        unit_scenario((10.0, 2.0), RISING, Polynomial((0.0, 1.0))), [(2.0,)], 0.0, False,
        lambda scenario, tables: None,
    )
    cases["spike-narrower-than-a-cell"] = (
        unit_scenario((10.0, 2.0), [spike], _NO_COST), [(1.0,), (4.0,)], 0.0, False,
        flat_on_the_scan,
    )

    def slope_overflows(scenario, tables):
        d1 = tables.array(scenario.profile.components[0], VALIDATION_GRID_POINTS, 1)
        with np.errstate(over="ignore"):
            assert np.isfinite(d1).all() and not np.isfinite(1e300 * d1).all()

    # p rises by 0.05 within 2e-10 at e = 0.5, far below its top at e = 0;
    # the slope of the row 1e300 overflows there alone
    ramp = Tabulated(
        (0.0, 0.2, 0.3, 0.5 - 1e-10, 0.5 + 1e-10, 0.7, 1.0),
        (0.3, 0.3, 0.1, 0.1, 0.15, 0.15, 0.15),
    )
    cases["slope-overflows-in-a-pruned-cell"] = (
        unit_scenario((10.0, 2.0), [ramp], _QUADRATIC_COST), [(1e300,)], 0.0, False, slope_overflows,
    )

    def d1_not_finite(scenario, tables):
        d1 = tables.array(scenario.profile.components[0], VALIDATION_GRID_POINTS, 1)
        assert not np.isfinite(d1).all()

    # p = 1e308 e^2 is finite on [0, 1], its derivative is not
    cases["d1-table-not-finite"] = (
        unit_scenario((10.0, 2.0), [Polynomial((0.0, 0.0, 1e308))], _QUADRATIC_COST),
        [(1e-300,)], 0.0, False, d1_not_finite,
    )

    def wide_ulp(scenario, tables):
        assert np.spacing(scenario.interval.hi) > agent_module.REFINE_TOL / 16

    wide = Scenario(
        (10.0, 2.0), EffortInterval(1e4, 1e4 + 1.0), EffortProfile((Polynomial((-4999.8, 0.5)),)),
        AgentPreferences(IDENTITY, Polynomial((2e8, -4e4, 2.0))), PrincipalPreferences(IDENTITY),
    )
    cases["interval-ulp-above-refine-tol"] = (wide, [(1.0,), (2.0,)], 0.0, False, wide_ulp)

    def dip_below_the_scan_peak(scenario, tables):
        efforts, _ = row_efforts(scenario, tables, (1.0,))
        assert 0.5 - 0.5 * _ST in efforts

    # the scan peak at the cell edge e = 0.5 snaps onto the bottom of a dip
    # a tenth as deep as the peak is high, between it and the scan point
    # below it: every kept candidate lies below the cell edges' best h
    dip = Tabulated(
        (0.0, 0.5 - 0.6 * _ST, 0.5 - 0.5 * _ST, 0.5 - 0.4 * _ST, 0.5 - 0.1 * _ST, 1.0),
        (0.2, 0.6, 0.59, 0.605, 0.61, 0.2),
    )
    cases["best-kept-point-below-the-floor"] = (
        unit_scenario((10.0, 2.0), [dip], _NO_COST), [(1.0,)], 0.0, True, dip_below_the_scan_peak,
    )

    def flat_at_the_edge(scenario, tables):
        d1 = tables.array(scenario.profile.components[0], MT_GRID_POINTS, 1)
        assert d1[(MT_GRID_POINTS - 1) // 2] == 0.0

    # p rises to 0.3 at e = 0.5, where a flat piece starts, and on to its
    # top 0.6 beyond: the cells below e = 0.5 rise and are pruned, and the
    # slope on the bracket grid is 0 at their edge with the kept ones
    step = Tabulated((0.0, 0.5, 0.53, 0.6, 1.0), (0.1, 0.3, 0.3, 0.6, 0.6))
    cases["slope-zero-at-a-kept-cell-edge"] = (
        unit_scenario((10.0, 2.0), [step], _NO_COST), [(1.0,), (3.0,)], 0.0, True, flat_at_the_edge,
    )

    def root_just_above_the_edge(scenario, tables):
        efforts, _ = row_efforts(scenario, tables, (1.0,))
        assert any(0.0 <= e - 0.5 <= agent_module.TAU_E for e in efforts)
        # the slope at the edge is far from 0, so this check alone sends it
        d1 = tables.array(scenario.profile.components[0], MT_GRID_POINTS, 1)
        assert abs(d1[(MT_GRID_POINTS - 1) // 2]) > 1e-3

    # p rises to a bump 5e-10 above the cell edge e = 0.5, falls past the
    # next bracket-grid point and rises to its top in the cell above the
    # edge: the cells below rise and are pruned, and the root at the bump,
    # a local maximum, is a candidate within TAU_E of their edge, which a
    # candidate of the pruned cell below could drop
    bump = Tabulated((0.0, 0.4999, 0.5 + 5e-10, 0.5015, 0.5035, 1.0), (0.1, 0.2, 0.3, 0.25, 0.6, 0.6))
    cases["candidate-within-tau-e-above-a-kept-cell-edge"] = (
        unit_scenario((10.0, 2.0), [bump], _NO_COST), [(1.0,)], 0.0, True, root_just_above_the_edge,
    )
    return cases


_FALLBACKS = _fallback_cases()


class TestFullBuildFallbacks:
    """Rows that cannot carry the pruning proof take the full build."""

    @pytest.mark.parametrize("name", sorted(_FALLBACKS))
    def test_takes_the_full_build(self, name):
        scenario, rows, base_size, proposed, check = _FALLBACKS[name]
        tables, cost_size = effort_tables(scenario), _cost_size(scenario)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the build warns of no overflow
            got = _built_rows(scenario, tables, rows, base_size)
        check(scenario, tables)
        if proposed is not None:
            assert (_prune_proposed(scenario, rows, base_size) == proposed).all()
        # a pruned row's size is the enclosures' bound, not the reference's
        for deltas, row in zip(rows, got):
            with np.errstate(all="ignore"):  # the huge rows overflow
                expected, _ = row_build(scenario, tables, deltas, cost_size)
            assert _same_row(row, expected), (name, deltas)


def _winner_row(scenario, family, contract) -> str:
    """How the row of the contract's utility deltas is built in the family:
    "full" (no cell pruned), "pruned", or "rebuilt" (pruned by _cells, then
    sent back to the full build, so its size is not the pruned bound)."""
    base_size = principal_module._FamilyArrays(scenario, family).base_size()
    tables = effort_tables(scenario)
    deltas = np.array([LinearPayoff.agent(scenario, contract).deltas])
    kept, _, _, size_bound, _ = principal_module._cells(scenario, tables, deltas, deltas != 0.0, base_size)
    if kept.all():
        return "full"
    stats, _, _ = principal_module._build_rows(scenario, tables, deltas, base_size)
    return "pruned" if _bits(stats[2]) == _bits(size_bound) else "rebuilt"


def _screened_winner_games():
    """(scenario, family, SCREEN_CHUNK) of the screen and batching families,
    the fixture in blocks of 7 contracts, and a family of one contract per
    row of each fallback case whose rows _cells prunes and the build sends
    back to the full build."""
    games = [(*make(), principal_module.SCREEN_CHUNK)
             for make in (*SCREEN_FAMILIES.values(), *BATCHING_FAMILIES.values())]
    games.append((*BATCHING_FAMILIES["fixture-shared-step"](), 7))
    for scenario, rows, _, proposed, _ in _FALLBACKS.values():
        if proposed and scenario.n_outcomes == 2:
            contracts = tuple(Contract((d, 0.0)) for (d,) in rows)
            games.append((scenario, ContractFamily(contracts=contracts), principal_module.SCREEN_CHUNK))
    return games


class TestScreenedWinner:
    """A screened winner's BestResponse, effort and principal value come
    from its row's points, and are its own solve's (_respond)."""

    @pytest.mark.parametrize("policy", TIE_BREAK_POLICIES)
    def test_equals_its_own_solve(self, policy, monkeypatch):
        screen = principal_module._screen
        responded = []  # (block, result) of each response taken from a row

        def recording_screen(*args):
            screened, accepted, value, respond = screen(*args)
            block = blocks[0]
            blocks[0] += 1

            def recording_respond(k):
                responded.append((block, respond(k)))
                return responded[-1][1]

            return screened, accepted, value, recording_respond

        monkeypatch.setattr(principal_module, "_screen", recording_screen)
        met = {"full": 0, "pruned": 0, "rebuilt": 0, "earlier block": 0}
        for scenario, family, chunk in _screened_winner_games():
            monkeypatch.setattr(principal_module, "SCREEN_CHUNK", chunk)
            blocks, responded[:] = [0], []
            got = solve_game(scenario, family, policy)
            if not responded or got.best_response is not responded[-1][1][0]:
                continue  # no winner, or one the one-by-one loop solved
            block, (response, effort, value) = responded[-1]
            expected = principal_module._respond(scenario, got.contract, policy)
            assert repr((response, effort, value)) == repr(expected)
            assert (got.best_response, got.effort, got.principal_payoff) == expected
            assert got.agent_payoff == expected[0].optimal_expectation
            met[_winner_row(scenario, family, got.contract)] += 1
            met["earlier block"] += block < blocks[0] - 1
        assert min(met.values()) > 0, met


class _ArrayEvalOff(Polynomial):
    """A polynomial whose eval on arrays lies a relative 1e-6 above its scalar calls.

    It inherits eval_array_ulps 0, but its eval is not its family's, so
    the row build makes a scalar call per point on it.
    """

    def eval(self, t):
        value = super().eval(t)
        return value * (1.0 + 1e-6) if isinstance(t, np.ndarray) else value


class _ArrayD1Off(Polynomial):
    """A polynomial whose d1 on arrays lies a relative 1e-6 above its scalar calls.

    It inherits d1_array_ulps 0, but its d1 is not its family's, so the
    row build's slopes are its scalar calls.
    """

    def d1(self, t):
        value = super().d1(t)
        return value * (1.0 + 1e-6) if isinstance(t, np.ndarray) else value


class _InfiniteAtOne(Curve):
    """p(e) = 0.2 + 0.5e, whose scalar eval is infinite at e = 1 alone."""

    family = "infinite-at-one"

    def eval(self, t):
        if not isinstance(t, np.ndarray) and t == 1.0:
            return math.inf
        return 0.2 + 0.5 * t

    def d1(self, t):
        return 0.5 + 0.0 * t

    def d2(self, t):
        return 0.0 * t


def _merged(rng, lists: dict) -> tuple[list, list]:
    """(owner, item): the lists' items in a random interleaving that keeps each list's order."""
    heads = {key: 0 for key, items in lists.items() if items}
    owner, merged = [], []
    while heads:
        key = list(heads)[int(rng.integers(len(heads)))]
        owner.append(key)
        merged.append(lists[key][heads[key]])
        heads[key] += 1
        if heads[key] == len(lists[key]):
            del heads[key]
    return owner, merged


class TestArrayFinish:
    """_build_rows settles and evaluates all of a call's rows at once, as
    settle_points and one scalar call per curve and point do row by row."""

    def test_settle_equals_settle_points_row_by_row(self):
        tau = agent_module.TAU_E
        rng = np.random.default_rng(2401)
        intervals = [
            EffortInterval(0.0, 1.0), EffortInterval(-1.0, 0.0),
            EffortInterval(2.0, 2.0 + 0.5 * tau), EffortInterval(0.0, 0.3 * tau),
        ]
        met = {"third of a chain": 0, "lone point": 0, "signed zero at lo": 0, "outside": 0}
        for trial in range(80):
            interval = intervals[trial % len(intervals)]
            lo, hi = interval.lo, interval.hi
            width = hi - lo
            rows = np.flatnonzero(rng.random(12) < 0.7)
            lists = {}
            for r in rows.tolist():
                picks = []
                for _ in range(int(rng.integers(0, 6))):
                    kind = int(rng.integers(5))
                    if kind == 0:  # anywhere, also outside [lo, hi]
                        picks.append(float(rng.uniform(lo - 0.2 * width - tau, hi + 0.2 * width + tau)))
                    elif kind == 1:  # a chain c, c + 0.6 TAU_E, c + 1.2 TAU_E, ...
                        c = float(rng.uniform(lo, hi))
                        picks += [c + 0.6 * tau * m for m in range(int(rng.integers(3, 5)))]
                    elif kind == 2 and picks:  # a duplicate
                        picks.append(picks[int(rng.integers(len(picks)))])
                    elif kind == 3:  # signed zeros
                        picks += [-0.0, 0.0]
                    else:  # near an end
                        picks.append(float(rng.choice([lo, hi]) + rng.uniform(-2.0 * tau, 2.0 * tau)))
                lists[r] = picks
            at, candidates = _merged(rng, lists)
            owner, points = principal_module._settle(
                rows, np.array(at, dtype=np.intp), np.array(candidates, dtype=float), interval
            )
            assert (np.diff(owner) >= 0).all()
            assert sorted(set(owner.tolist())) == rows.tolist()
            for r in rows.tolist():
                expected = agent_module.settle_points(lists[r], interval)
                assert [x.hex() for x in points[owner == r].tolist()] == [x.hex() for x in expected], (
                    interval, lists[r]
                )
                gaps = np.diff(expected)
                met["third of a chain"] += bool(((gaps > tau) & (gaps < 1.5 * tau)).any())
                met["lone point"] += width <= tau
                met["signed zero at lo"] += lo == 0.0 and any(
                    c == 0.0 and math.copysign(1.0, c) < 0.0 for c in lists[r]
                )
                met["outside"] += any(not lo <= c <= hi for c in lists[r])
        assert min(met.values()) > 0, met

    def test_a_row_with_a_point_not_finite_is_none_alone(self):
        """p2's scalar eval is infinite at hi, its tables are finite: the
        row with a delta on p2 is None, the others are built (in full,
        under an infinite tie tolerance)."""
        scenario = unit_scenario((10.0, 5.0, 2.0), [RISING[0], _InfiniteAtOne()], _QUADRATIC_COST)
        tables, cost_size = effort_tables(scenario), _cost_size(scenario)
        rows = [(1.0, 0.0), (1.0, 2.0), (3.0, 0.0), (0.5, 0.0)]
        got = _built_rows(scenario, tables, rows, math.inf)
        assert [row is None for row in got] == [False, True, False, False]
        for deltas, row in zip(rows, got):
            expected, why = row_build(scenario, tables, deltas, cost_size)
            assert _same_row(row, expected), deltas
            assert (why == "raises") == (deltas[1] != 0.0)
        # each built row's last point is hi, where p2 is infinite
        assert [row.points[-1, -1] for row in got if row is not None] == [math.inf] * 3

    @pytest.mark.parametrize("method, make", [("eval", _ArrayEvalOff), ("d1", _ArrayD1Off)])
    def test_a_curve_whose_method_is_not_its_familys_takes_scalar_calls(self, method, make):
        """A subclass overriding eval or d1 inherits its array ulps 0, but
        the row build takes the method's scalar calls, as the per-row
        reference does."""
        offset = make((0.2, 0.5, -0.1))
        assert getattr(offset, f"{method}_array_ulps") == 0.0
        scenario = unit_scenario((10.0, 2.0), [offset], _QUADRATIC_COST)
        tables, cost_size = effort_tables(scenario), _cost_size(scenario)
        rows = [(1.0,), (4.0,), (-2.0,), (7.5,)]
        got = _built_rows(scenario, tables, rows, 0.0)
        assert all(row is not None for row in got)
        for deltas, row in zip(rows, got):
            expected, _ = row_build(scenario, tables, deltas, cost_size)
            assert _same_row(row, expected), deltas
            efforts, _ = row_efforts(scenario, tables, deltas)
            scalar = [getattr(offset, method)(e) for e in efforts]
            assert _bits(getattr(offset, method)(np.array(efforts))) != _bits(scalar)


def _random_curve(rng, kind, lo, hi):
    """A curve of the family kind, defined and smooth on [lo, hi]."""
    shift = float(rng.uniform(0.05, 1.0)) - lo  # t + shift > 0 on the interval
    a, b = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-2, 3, size=2))
    if kind == "polynomial":
        return Polynomial(tuple(float(c) for c in rng.normal(size=int(rng.integers(1, 6)))))
    if kind == "exp-affine":
        return ExpAffine(a, b, float(rng.uniform(-4.0, 4.0)) / max(1.0, hi))
    if kind == "log-affine":
        return LogAffine(a, b, shift)
    if kind == "power":
        return Power(b, float(rng.uniform(-2.0, 3.0)), shift)
    knots = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, int(rng.integers(1, 9)))]))
    return Tabulated(tuple(knots), tuple(rng.uniform(-1.0, 1.0, knots.size)))


_KINDS = ("polynomial", "exp-affine", "log-affine", "power", "tabulated")


def _one_by_one(g, a, b, snap):
    """bracket_roots' and snap_root's bisection of one bracket: NaN for an open one."""
    if snap:
        root = snap_root(g, a, b)
        return math.nan if root is None else root
    return _bisect_root(g, a, b, g(a), g(b))


class TestLockstepBisection:
    """bisect_brackets on _Slopes gives _bisect_root's roots, bit for bit."""

    @pytest.mark.parametrize("kind", _KINDS)
    def test_random_brackets(self, kind):
        rng = np.random.default_rng(_KINDS.index(kind) + 8801)
        exits = {"stop": 0, "open": 0, "root": 0}
        for trial in range(12):
            # an interval far from 0 has ulps above REFINE_TOL: the mid <= a stop
            lo = 0.0 if trial % 3 else 1e4
            hi = lo + float(rng.uniform(0.5, 2.0))
            other = _KINDS[int(rng.integers(len(_KINDS)))]
            components = [_random_curve(rng, kind, lo, hi), _random_curve(rng, other, lo, hi)]
            cost = _random_curve(rng, _KINDS[int(rng.integers(len(_KINDS)))], lo, hi)
            scenario = Scenario(
                (10.0, 5.0, 2.0), EffortInterval(lo, hi), EffortProfile(tuple(components)),
                AgentPreferences(IDENTITY, cost), PrincipalPreferences(IDENTITY),
            )
            keys = [tuple(float(d) for d in rng.normal(size=2) * (rng.random(2) < 0.8)) for _ in range(6)]
            keys[0] = (1.0, 0.0)
            count = 200
            rows = rng.integers(len(keys), size=count)
            a = rng.uniform(lo, hi, count)
            width = np.where(rng.random(count) < 0.5, (hi - lo) / 1024, (hi - lo) / 2048)
            b = np.minimum(a + width, hi)
            tiny = rng.random(count) < 0.2  # brackets 1 or 2 ulps wide
            b[tiny] = np.nextafter(np.nextafter(a[tiny], np.inf), np.where(rng.random(tiny.sum()) < 0.5, np.inf, a[tiny]))
            snap = rng.random(count) < 0.5
            slopes = principal_module._Slopes(scenario, np.array(keys))
            got = agent_module.bisect_brackets(slopes.bind(rows), a, b, snap)
            assert not slopes.failed.any()
            for k in range(count):
                g = LinearPayoff(scenario, (*keys[rows[k]], 0.0), cost).slope
                expected = _one_by_one(g, float(a[k]), float(b[k]), bool(snap[k]))
                assert np.array([got[k]]).tobytes() == np.array([expected]).tobytes(), (k, a[k], b[k])
                exits["open"] += math.isnan(expected)
                exits["stop"] += bool(b[k] - a[k] > 1e-12 and tiny[k])
                exits["root"] += not math.isnan(expected)
        assert min(exits.values()) > 0

    def test_zero_exits(self):
        """Roots at a bracket end, and a midpoint where the slope is exactly 0."""
        # slope d (0.5) - 2e: 0 at e = 0.25 for the row d = 1
        scenario = unit_scenario((10.0, 2.0), RISING, Polynomial((0.0, 0.0, 1.0)))
        keys = [(1.0,), (2.0,)]
        a = np.array([0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.375])
        b = np.array([0.5, 0.25, 0.5, 0.5, 0.25, 0.75, 0.625])
        rows = np.array([0, 0, 0, 0, 0, 1, 1])
        snap = np.array([False, False, False, True, True, False, True])
        slopes = principal_module._Slopes(scenario, np.array(keys))
        got = agent_module.bisect_brackets(slopes.bind(rows), a, b, snap)
        assert got.tolist() == [0.25, 0.25, 0.25, 0.25, 0.25, 0.5, 0.5]
        for k in range(len(a)):
            g = LinearPayoff(scenario, (*keys[rows[k]], 0.0), scenario.agent.effort_cost).slope
            assert got[k] == _one_by_one(g, float(a[k]), float(b[k]), bool(snap[k]))

    def test_rows_that_skip_a_component(self):
        """Rows with a zero delta, so each component is unused by some rows of a call."""
        components = [Polynomial((0.2, 0.5, -0.3)), Polynomial((0.1, 0.3))]
        scenario = unit_scenario((10.0, 5.0, 2.0), components, Polynomial((0.0, 0.0, 2.0)))
        keys = [(1.0, 0.0), (0.0, 2.0), (0.5, 1.0), (0.0, 0.0), (-0.7, 0.0)]
        slopes, _ = _check_lockstep(scenario, keys, np.random.default_rng(8811))
        assert slopes.exact and not slopes.failed.any()

    def test_exact_and_inexact_rows_in_one_call(self):
        """Rows of guard 0 (polynomial terms only) beside rows with an exp-affine term."""
        components = [Polynomial((0.2, 0.5)), ExpAffine(0.3, -0.2, -1.3)]
        scenario = unit_scenario((10.0, 5.0, 2.0), components, Polynomial((0.0, 0.0, 2.0)))
        keys = [(1.0, 0.0), (2.5, 0.0), (0.0, 1.5), (1.0, -3.0)]
        slopes, _ = _check_lockstep(scenario, keys, np.random.default_rng(8812))
        assert (slopes.guard[:2] == 0.0).all() and (slopes.guard[2:] > 0.0).all()
        assert not slopes.exact and not slopes.failed.any()

    def test_a_component_whose_array_d1_raises(self, monkeypatch):
        """Its rows take scalar calls, and a row whose scalar call raises is
        failed; the rows without it keep their array values."""
        scalar, calls = principal_module._Slopes.scalar, []

        def counting_scalar(self, row, x):
            calls.append(row)
            return scalar(self, row, x)

        monkeypatch.setattr(principal_module._Slopes, "scalar", counting_scalar)
        components = [Polynomial((0.2, 0.5)), _ScalarD1Below((0.1, 0.3, 0.2))]
        scenario = unit_scenario((10.0, 5.0, 2.0), components, Polynomial((0.0, 0.0, 2.0)))
        keys = [(1.0, 0.0), (0.0, 1.5), (1.0, -3.0), (2.0, 0.0)]
        slopes, _ = _check_lockstep(scenario, keys, np.random.default_rng(8813))
        assert slopes.failed.tolist() == [False, True, True, False]
        assert {1, 2} <= set(calls) and not {0, 3} & set(calls)

    def test_exact_rows_redo_only_zero_and_non_finite_slopes(self, monkeypatch):
        """A call on exact rows keeps numpy's slopes and takes the scalar call
        only where a slope is 0 or not finite, which gives it back."""
        scalar, calls = principal_module._Slopes.scalar, []

        def counting_scalar(self, row, x):
            calls.append(x)
            return scalar(self, row, x)

        monkeypatch.setattr(principal_module._Slopes, "scalar", counting_scalar)
        keys, rows = [(1.0,), (2.0,)], np.array([0, 0, 1, 1])
        x = np.array([0.25, 0.3, 0.5, 0.7])
        # slope 0.5 d - 2e: 0 at e = d / 4; with v = 1e308 e^2, v' = inf * e
        for cost, redone in ((Polynomial((0.0, 0.0, 1.0)), [0.25, 0.5]),
                             (Polynomial((0.0, 0.0, 1e308)), x.tolist()),
                             (Polynomial((0.0, 0.25)), [])):
            scenario = unit_scenario((10.0, 2.0), RISING, cost)
            slopes = principal_module._Slopes(scenario, np.array(keys))
            calls.clear()
            got = slopes.bind(rows)(np.arange(len(x)), x)
            assert slopes.exact and calls == redone
            for k in range(len(x)):
                g = LinearPayoff(scenario, (*keys[rows[k]], 0.0), cost).slope
                assert _bits(got[k]) == _bits(g(float(x[k]))), (cost, k)

    @pytest.mark.parametrize("component", [Polynomial((0.2, 0.5)), ExpAffine(0.6, -0.4, -1.1)])
    def test_the_grid_and_scan_peak_brackets_of_one_maximum(self, component):
        """Each row's grid bracket and scan-peak bracket of its maximum, in one call."""
        scenario = unit_scenario((10.0, 2.0), [component], Polynomial((0.0, 0.0, 2.0)))
        tables = effort_tables(scenario)
        scan, grid = tables.grid(SCAN_GRID_POINTS), tables.grid(MT_GRID_POINTS)
        keys = [(d,) for d in (1.3, 2.4, 3.7, 5.9)]
        rows, a, b, snap = [], [], [], []
        for row, (d,) in enumerate(keys):
            g = LinearPayoff(scenario, (d, 0.0), scenario.agent.effort_cost).slope
            j = next(j for j in range(MT_GRID_POINTS - 1) if g(grid[j]) > 0.0 >= g(grid[j + 1]))
            k = j * 4 + max(range(1, 5), key=lambda i: -abs(g(scan[j * 4 + i])))
            rows += [row, row]
            a += [grid[j], scan[k - 1]]
            b += [grid[j + 1], scan[k + 1]]
            snap += [False, True]
        brackets = np.array(rows), np.array(a), np.array(b), np.array(snap)
        slopes, roots = _check_lockstep(scenario, keys, None, brackets)
        assert not slopes.failed.any() and not np.isnan(roots).any()


class _ScalarD1Below(Polynomial):
    """A polynomial whose d1 raises on arrays, and on scalars above 0.6."""

    def d1(self, t):
        if isinstance(t, np.ndarray) or t > 0.6:
            raise DomainError("no slope here")
        return super().d1(t)


def _check_lockstep(scenario, keys, rng, brackets=None):
    """Run bisect_brackets on _Slopes over brackets (rows, a, b, snap), or
    over 300 random ones of rng, and check each root against the one-by-one
    search, bit for bit: every bracket of a row whose searches all finish,
    and _Slopes.failed set exactly at the rows where one raises.  Returns
    the _Slopes and the roots."""
    lo, hi = scenario.interval.lo, scenario.interval.hi
    if brackets is None:
        count = 300
        rows = rng.integers(len(keys), size=count)
        a = rng.uniform(lo, hi, count)
        b = np.minimum(a + np.where(rng.random(count) < 0.5, (hi - lo) / 1024, (hi - lo) / 16), hi)
        snap = rng.random(count) < 0.5
    else:
        rows, a, b, snap = brackets
    slopes = principal_module._Slopes(scenario, np.array(keys, dtype=float))
    got = agent_module.bisect_brackets(slopes.bind(rows), a, b, snap)
    expected, raising = {}, set()
    for k in range(len(a)):
        g = LinearPayoff(scenario, (*keys[rows[k]], 0.0), scenario.agent.effort_cost).slope
        try:
            expected[k] = _one_by_one(g, float(a[k]), float(b[k]), bool(snap[k]))
        except DomainError:
            raising.add(int(rows[k]))
    assert set(np.flatnonzero(slopes.failed).tolist()) == raising
    checked = [k for k in expected if rows[k] not in raising]
    assert checked
    for k in checked:
        assert np.array([got[k]]).tobytes() == np.array([expected[k]]).tobytes(), (k, a[k], b[k])
    return slopes, got
