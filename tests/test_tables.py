"""The shared table store: one scenario's curves on its effort grids.

Every agent-side entry point reads its grid arrays from effort_tables.
Whether a call fills the tables or finds them filled must not change a
result or an error, the arrays must be read-only, and only the most
recent scenario's tables may stay reachable.
"""

import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import contractgame.tables as tables_module
from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
    DomainError,
    EffortInterval,
    EffortProfile,
    LogAffine,
    Polynomial,
    Power,
    PrincipalPreferences,
    Scenario,
    Tabulated,
    agent_best_response,
    classical_assumptions_report,
    classify_risk,
    detect_invisible_effort,
    scenario_validate,
    solve_game,
    two_outcome_linear_analysis,
)
from contractgame.agent import MT_GRID_POINTS, RISK_GRID_POINTS, SCAN_GRID_POINTS
from contractgame.model import VALIDATION_GRID_POINTS
from contractgame.tables import EffortTables, effort_tables
from scenario_gen import (
    averse_taxonomy_scenario,
    constant_profile_scenario,
    linear_two_outcome_scenario,
    random_scenario,
    reference_scenario,
    seeking_taxonomy_scenario,
)

ENTRY_POINTS = {
    "validate": lambda s, c: scenario_validate(s, (c,)),
    "best-response": agent_best_response,
    "risk": classify_risk,
    "invisible": lambda s, c: detect_invisible_effort(s),
    "two-outcome": two_outcome_linear_analysis,
    "classical": lambda s, c: classical_assumptions_report(s, (min(c.wages), max(c.wages))),
    "game": lambda s, c: solve_game(
        s, ContractFamily(contracts=(c, Contract(tuple(0.5 * w for w in c.wages))))
    ),
}


def _scenario(components, cost):
    return Scenario(
        (10.0, 2.0),
        EffortInterval(0.0, 1.0),
        EffortProfile(tuple(components)),
        AgentPreferences(Polynomial((0.0, 1.0)), cost),
        PrincipalPreferences(Polynomial((0.0, 1.0))),
    )


_QUADRATIC = Polynomial((0.0, 0.0, 2.0))
_UNDEFINED_LOW = LogAffine(0.5, 0.1, -0.2)  # needs e > 0.2
_SHORT_KNOTS = Tabulated((0.2, 0.5, 1.0), (0.3, 0.4, 0.6))  # defined on [0.2, 1]

# curves that raise on the effort grids; "both" fails in a component and in the cost
ERROR_SCENARIOS = {
    "component-undefined": lambda: _scenario([_UNDEFINED_LOW], _QUADRATIC),
    "cost-undefined": lambda: _scenario([Polynomial((0.2, 0.5))], LogAffine(0.0, 1.0, -0.2)),
    "cost-d2-singular": lambda: _scenario([Polynomial((0.2, 0.5))], Power(1.0, 1.5, 0.0)),
    "both": lambda: _scenario([_UNDEFINED_LOW], _SHORT_KNOTS),
}


def _documents():
    """(scenario, contract) pairs of every structure the entry points treat apart."""
    rng = np.random.default_rng(8101)
    docs = [reference_scenario()]
    docs += [random_scenario(rng) for _ in range(4)]
    docs += [linear_two_outcome_scenario(rng) for _ in range(2)]
    docs.append(constant_profile_scenario(rng)[:2])
    docs.append(averse_taxonomy_scenario(rng)[:2])
    docs.append(seeking_taxonomy_scenario(rng))
    docs += [(make(), Contract((4.0, 0.0))) for make in ERROR_SCENARIOS.values()]
    return docs


def _outcome(name, scenario, contract):
    try:
        return repr(ENTRY_POINTS[name](scenario, contract))
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return f"{type(err).__name__}: {err}"


def _clear():
    tables_module._last = None


class TestSharedResults:
    def test_order_and_store_state_do_not_change_results(self):
        shuffle = random.Random(8102)
        names = sorted(ENTRY_POINTS)
        other = reference_scenario()[0]
        for scenario, contract in _documents():
            cleared = {}
            for name in names:
                _clear()
                cleared[name] = _outcome(name, scenario, contract)
            first = {}
            for name in names:
                ENTRY_POINTS["validate"](other, Contract((4.0, 0.0)))
                first[name] = _outcome(name, scenario, contract)
            order = names[:]
            shuffle.shuffle(order)
            shared = {name: _outcome(name, scenario, contract) for name in order}
            assert first == cleared
            assert shared == cleared

    def test_errors_are_the_curves_first_errors(self):
        """The messages are those of the per-call evaluation order."""
        contract = Contract((4.0, 0.0))
        undefined = "DomainError: log-affine curve needs t + -0.2 > 0; min shifted value -0.2"
        short = "DomainError: tabulated curve defined on [0.2, 1.0]; no extrapolation"
        singular = "DomainError: power curve with exponent -0.5 is singular at t + 0.0 == 0"
        expected = {
            # eval and d1 are fine and cached; d2 raises at every reader
            "cost-d2-singular": {"validate": "[]", "risk": singular, "classical": singular},
            "both": {
                "best-response": undefined,
                "risk": undefined,
                "invisible": undefined,
                "game": undefined,
                "classical": short,
            },
        }
        for case, errors in expected.items():
            scenario = ERROR_SCENARIOS[case]()
            for order in (sorted(ENTRY_POINTS), sorted(ENTRY_POINTS, reverse=True)):
                _clear()
                got = {name: _outcome(name, scenario, contract) for name in order}
                for name, message in errors.items():
                    assert got[name] == message
        issues = scenario_validate(ERROR_SCENARIOS["both"](), (contract,))
        assert [str(i) for i in issues] == [
            "profile component 0: " + undefined.split(": ", 1)[1],
            "effort cost: " + short.split(": ", 1)[1],
        ]

    def test_a_curve_that_raises_is_never_cached(self):
        calls = []

        class Flaky(Polynomial):
            def eval(self, t):
                calls.append(t)
                raise DomainError("flaky")

        tables = EffortTables(EffortInterval(0.0, 1.0))
        curve = Flaky((1.0,))
        for _ in range(2):
            with pytest.raises(DomainError, match="flaky"):
                tables.array(curve, SCAN_GRID_POINTS)
        assert len(calls) == 2
        assert tables.array(curve, SCAN_GRID_POINTS, 1) is tables.array(curve, SCAN_GRID_POINTS, 1)


class TestStore:
    def test_consecutive_calls_share_one_scenarios_tables(self):
        scenario, contract = reference_scenario()
        tables = effort_tables(scenario)
        agent_best_response(scenario, contract)
        classify_risk(scenario, contract)
        assert effort_tables(scenario) is tables
        cost = scenario.agent.effort_cost
        cached = tables.array(cost, SCAN_GRID_POINTS)
        assert tables.array(cost, SCAN_GRID_POINTS) is cached
        # an equal scenario is another object, with tables of its own
        twin = reference_scenario()[0]
        assert twin == scenario and effort_tables(twin) is not tables

    def test_only_the_last_scenarios_tables_stay_reachable(self):
        rng = np.random.default_rng(8103)
        refs = []
        for _ in range(50):
            scenario, contract = random_scenario(rng)
            for name in sorted(ENTRY_POINTS):
                _outcome(name, scenario, contract)
            refs.append(weakref.ref(scenario))
        gc.collect()
        assert [r() is None for r in refs] == [True] * 49 + [False]
        alive = [o for o in gc.get_objects() if isinstance(o, EffortTables)]
        assert alive == [effort_tables(scenario)]
        # the store holds the scenario itself only weakly
        del scenario, contract
        gc.collect()
        assert refs[-1]() is None

    def test_cached_arrays_refuse_writes(self):
        scenario, contract = reference_scenario()
        _clear()
        for name in sorted(ENTRY_POINTS):
            _outcome(name, scenario, contract)
        tables = effort_tables(scenario)
        arrays = [tables.grid(p) for p in (SCAN_GRID_POINTS, MT_GRID_POINTS, RISK_GRID_POINTS)]
        for curve in (*scenario.profile.components, scenario.agent.effort_cost):
            arrays += [tables.array(curve, VALIDATION_GRID_POINTS, order) for order in range(3)]
            arrays.append(tables.array(curve, SCAN_GRID_POINTS))
        arrays.append(tables.array(scenario.agent.effort_cost, MT_GRID_POINTS, 1))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array += 1.0

    def test_validation_and_risk_grids_are_one_grid(self):
        assert VALIDATION_GRID_POINTS == RISK_GRID_POINTS
        tables = effort_tables(reference_scenario()[0])
        assert tables.grid(VALIDATION_GRID_POINTS) is tables.grid(RISK_GRID_POINTS)

    def test_threads_sharing_the_store_get_their_own_results(self):
        """Threads on different scenarios swap the one slot under each other."""
        docs = _documents()[:5]
        names = sorted(ENTRY_POINTS)

        def outcomes(k):
            scenario, contract = docs[k % len(docs)]
            return [_outcome(name, scenario, contract) for name in names]

        expected = [outcomes(k) for k in range(len(docs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(outcomes, k) for k in range(20)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[k % len(docs)] for k in range(20)]
