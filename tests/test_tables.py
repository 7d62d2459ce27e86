"""The shared table store: one scenario's curves on its effort grids.

Every agent-side entry point reads its grid arrays from effort_tables.
Whether a call fills the tables or finds them filled must not change a
result or an error, the arrays must be read-only, and only the most
recent scenario's tables may stay reachable.  Every grid is a view of
one scan, each curve's eval, d1 and d2 is evaluated once, and a strided
view must equal what evaluating on its own grid gives.
"""

import gc
import json
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import contractgame.principal as principal_module
import contractgame.tables as tables_module
from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
    DomainError,
    EffortInterval,
    EffortProfile,
    ExpAffine,
    LogAffine,
    Polynomial,
    Power,
    PrincipalPreferences,
    Scenario,
    Tabulated,
    WageGrid,
    agent_best_response,
    classical_assumptions_report,
    classify_risk,
    detect_invisible_effort,
    scenario_validate,
    solve_game,
    two_outcome_linear_analysis,
)
from contractgame.cli import run_command
from contractgame.tables import (
    CELLS,
    MT_GRID_POINTS,
    SCAN_GRID_POINTS,
    VALIDATION_GRID_POINTS,
    EffortTables,
    effort_tables,
)
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
        d1 = tables.array(curve, VALIDATION_GRID_POINTS, 1)
        assert tables.array(curve, VALIDATION_GRID_POINTS, 1) is d1


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
        arrays = [tables.grid(p) for p in (SCAN_GRID_POINTS, MT_GRID_POINTS, VALIDATION_GRID_POINTS)]
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

    def test_every_grid_is_a_view_of_the_one_scan(self):
        tables = effort_tables(reference_scenario()[0])
        scan = tables.grid(SCAN_GRID_POINTS)
        for points, stride in ((VALIDATION_GRID_POINTS, 2), (MT_GRID_POINTS, 4)):
            grid = tables.grid(points)
            assert grid is tables.grid(points)
            assert np.shares_memory(grid, scan)
            assert np.array_equal(grid, scan[::stride])

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


ORDERS = ("eval", "d1", "d2")
_FILL_POINTS = tables_module._FILLS  # the grid each order is filled on
CURVE_CLASSES = (Polynomial, ExpAffine, LogAffine, Power, Tabulated)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestOneEvaluation:
    def test_each_curve_order_is_evaluated_on_an_array_once(self, monkeypatch):
        """All seven entry points on one scenario call eval, d1 and d2 at most once each.

        Only calls on the effort grids count (arrays that share memory with
        the current tables' scan), so a grid filled twice fails; the point
        vectors solve_game's row build bisects on do not count.  A tabulated
        curve's joint fill (Tabulated.sorted_orders) counts as one grid call
        of each of its three orders.
        """
        calls = []
        joint = []

        def on_grid(t):
            last = tables_module._last
            return last is not None and np.shares_memory(t, last[1].grid(SCAN_GRID_POINTS))

        def counting(cls, name, orders):
            method = getattr(cls, name)

            def wrapper(self, t, *args):
                if isinstance(t, np.ndarray) and on_grid(t):
                    calls.extend((id(self), order) for order in orders)
                    if len(orders) > 1:
                        joint.append(id(self))
                return method(self, t, *args)

            return wrapper

        for cls in CURVE_CLASSES:
            for name in ORDERS:
                monkeypatch.setattr(cls, name, counting(cls, name, (name,)))
        monkeypatch.setattr(Tabulated, "sorted_orders", counting(Tabulated, "sorted_orders", ORDERS))
        docs = _documents()[: -len(ERROR_SCENARIOS)]
        for scenario, contract in docs:
            _clear()
            calls.clear()
            for name in sorted(ENTRY_POINTS):
                _outcome(name, scenario, contract)
            repeated = {key for key in calls if calls.count(key) > 1}
            assert not repeated, (scenario, repeated)
            # the scan's eval and the d1 of every profile component were read
            for comp in scenario.profile.components:
                assert (id(comp), "eval") in calls and (id(comp), "d1") in calls
        assert joint  # some documents have tabulated curves, filled jointly


def _jointly_filled_tabulated(rng):
    """(interval, curve, case): random tabulated curves whose interval is
    the knot range ("equal"), strictly inside it ("inside") or a few ulps
    wide ("narrow"); interior knots are scan points, so scan points land
    on them, and the top knot is the scan's last point unless "inside"."""
    for trial in range(300):
        case = ("equal", "inside", "narrow")[trial % 3]
        lo = float(rng.uniform(-3.0, 3.0)) * 10.0 ** float(rng.integers(-3, 3))
        hi = lo + float(rng.uniform(0.01, 5.0)) if case != "narrow" else lo
        for _ in range(int(rng.integers(3, 9)) if case == "narrow" else 0):
            hi = float(np.nextafter(hi, np.inf))
        interval = EffortInterval(lo, hi)
        scan = interval.grid(SCAN_GRID_POINTS)
        inner = scan[rng.integers(1, SCAN_GRID_POINTS - 1, int(rng.integers(1, 9)))]
        ends = [lo, hi]
        if case == "inside":
            ends = [lo - float(rng.uniform(0.0, 1.0)) - 1e-9, hi + float(rng.uniform(0.0, 1.0)) + 1e-9]
        knots = np.unique(np.concatenate([ends, inner]))
        if knots.size < 3:  # a narrow interval whose inner points all repeat an end
            knots = np.unique(np.concatenate([knots, [np.nextafter(lo, np.inf)]]))
        values = rng.uniform(-1.0, 1.0, knots.size) * 10.0 ** float(rng.integers(-2, 3))
        yield interval, Tabulated(tuple(knots), tuple(values)), case


class TestJointFill:
    """A tabulated curve's first read fills its eval, d1 and d2 arrays together."""

    def test_the_joint_fill_is_the_per_order_calls_bit_for_bit(self):
        rng = np.random.default_rng(8107)
        cases, on_inner, on_top = set(), 0, 0
        for interval, curve, case in _jointly_filled_tabulated(rng):
            tables = EffortTables(interval)
            scan = tables.grid(SCAN_GRID_POINTS)
            first = int(rng.integers(0, 3))
            tables.array(curve, _FILL_POINTS[first], first)
            # every order was filled by that one read
            assert set(tables._arrays) == {(id(curve), _FILL_POINTS[o], o) for o in range(3)}
            for order, name in enumerate(ORDERS):
                for points in (_FILL_POINTS[order], MT_GRID_POINTS):
                    got = tables.array(curve, points, order)
                    assert not got.flags.writeable
                    direct = getattr(curve, name)(interval.grid(points))
                    assert np.array_equal(_bits(got), _bits(direct)), (curve, case, name, points)
            cases.add(case)
            on_inner += int(np.isin(scan, curve.knots[1:-1]).sum())
            on_top += int(scan[-1] == curve.knots[-1])
        assert cases == {"equal", "inside", "narrow"}
        assert on_inner > 0 and on_top == 200  # the top knot is hi unless "inside"

    @pytest.mark.parametrize("knots", [(0.2, 0.5, 1.0), (0.0, 0.5, 0.9), (0.1, 0.5, 0.9)])
    def test_a_curve_off_the_interval_raises_at_every_read_and_is_not_kept(self, knots):
        curve = Tabulated(knots, (0.3, 0.4, 0.6))
        message = f"tabulated curve defined on [{knots[0]}, {knots[-1]}]; no extrapolation"
        interval = EffortInterval(0.0, 1.0)
        for order, name in enumerate(ORDERS):  # the per-order calls raise the same
            with pytest.raises(DomainError) as err:
                getattr(curve, name)(interval.grid(_FILL_POINTS[order]))
            assert str(err.value) == message
        for orders in ((0, 1, 2), (2, 1, 0)):
            tables = EffortTables(interval)
            for order in orders:
                for points in (_FILL_POINTS[order], _FILL_POINTS[order], MT_GRID_POINTS):
                    with pytest.raises(DomainError) as err:
                        tables.array(curve, points, order)
                    assert str(err.value) == message
            assert not tables._arrays

    @pytest.mark.parametrize("method", ORDERS)
    def test_a_subclass_with_its_own_method_is_filled_order_by_order(self, method):
        """Overriding eval, d1 or d2 ends the joint fill; overriding eval or
        d1, whose stated accuracies rest on the family's own code, also ends
        both enclosures and the trusted array ulps of that method."""

        class Own(Tabulated):
            pass

        setattr(Own, method, lambda self, t: getattr(Tabulated, method)(self, t))
        interval = EffortInterval(0.0, 1.0)
        knots, values = (0.0, 0.3, 1.0), (0.1, 0.5, 0.6)
        own, family = Own(knots, values), Tabulated(knots, values)
        assert not own.has_family_methods(method) and family.has_family_methods(*ORDERS)
        for curve, keys in ((family, 3), (own, 1)):
            tables = EffortTables(interval)
            tables.array(curve, SCAN_GRID_POINTS)
            assert len(tables._arrays) == keys
            for order, name in enumerate(ORDERS):
                direct = getattr(curve, name)(interval.grid(_FILL_POINTS[order]))
                assert np.array_equal(_bits(tables.array(curve, _FILL_POINTS[order], order)), _bits(direct))
        edges = interval.grid(CELLS + 1)
        for enclosure in (Tabulated.enclosure, Tabulated.slope_enclosure):
            assert enclosure(family, edges) is not None
            assert (enclosure(own, edges) is None) == (method != "d2")
        for name in ("eval", "d1"):
            ulps = principal_module._array_ulps(own, name)
            assert ulps == (math.inf if name == method else 0.0)
            assert principal_module._array_ulps(family, name) == 0.0


def _family_curves(rng, interval):
    """One curve of each of the five families, defined on the interval."""
    lo, hi = interval.lo, interval.hi
    shift = float(rng.uniform(0.05, 1.0)) - lo  # t + shift > 0 on the interval
    knots = np.unique(np.concatenate([[lo, hi], rng.uniform(lo, hi, int(rng.integers(1, 9)))]))
    a, b = (float(x) for x in rng.normal(size=2) * 10.0 ** rng.integers(-3, 4, size=2))
    return (
        Polynomial(tuple(float(c) for c in rng.normal(size=int(rng.integers(1, 7))))),
        ExpAffine(a, b, float(rng.uniform(-4.0, 4.0))),
        LogAffine(a, b, shift),
        Power(b, float(rng.uniform(-2.0, 3.0)), shift),
        Tabulated(tuple(knots), tuple(rng.uniform(-1.0, 1.0, knots.size))),
    )


class TestStrides:
    def test_coarse_grids_are_the_scans_even_and_fourth_points(self):
        """np.linspace nests for every width of at least 2^-1010."""
        rng = np.random.default_rng(8104)
        checked = 0
        for _ in range(2000):
            lo = 0.0 if rng.random() < 0.1 else float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300))
            hi = lo + float(10.0 ** rng.uniform(-300, 300))
            if not (np.isfinite(hi) and hi - lo >= 2.0**-1010):
                continue
            interval = EffortInterval(lo, hi)
            scan = interval.grid(SCAN_GRID_POINTS)
            assert np.array_equal(_bits(interval.grid(VALIDATION_GRID_POINTS)), _bits(scan[::2]))
            assert np.array_equal(_bits(interval.grid(MT_GRID_POINTS)), _bits(scan[::4]))
            checked += 1
        assert checked > 1000

    def test_strided_fills_equal_evaluation_on_the_coarse_grid(self):
        rng = np.random.default_rng(8105)
        for _ in range(150):
            lo = float(rng.uniform(-3.0, 3.0)) * 10.0 ** float(rng.integers(-3, 3))
            interval = EffortInterval(lo, lo + float(rng.uniform(0.01, 5.0)))
            tables = EffortTables(interval)
            with np.errstate(all="ignore"):  # exp-affine may overflow to inf
                for curve in _family_curves(rng, interval):
                    for order, name in enumerate(ORDERS):
                        for points in (VALIDATION_GRID_POINTS, MT_GRID_POINTS):
                            direct = getattr(curve, name)(interval.grid(points))
                            strided = tables.array(curve, points, order)
                            assert np.array_equal(_bits(strided), _bits(direct)), (curve, name, points)

    def test_steps_bound_every_step_of_the_scan_in_its_cell(self):
        """EffortTables.steps: per cell, the least and largest float step of
        the scan between consecutive points of the cell, edges included."""
        rng = np.random.default_rng(8106)
        for _ in range(20):
            lo = float(rng.uniform(-3.0, 3.0))
            interval = EffortInterval(lo, lo + float(rng.uniform(0.01, 5.0)))
            tables = EffortTables(interval)
            scan = interval.grid(SCAN_GRID_POINTS)
            cell = np.arange(SCAN_GRID_POINTS - 1) // ((SCAN_GRID_POINTS - 1) // CELLS)
            with np.errstate(all="ignore"):
                for curve in _family_curves(rng, interval):
                    values = curve.eval(scan)
                    least, largest = tables.steps(curve)
                    assert tables.steps(curve) is tables.steps(curve)
                    step = values[1:] - values[:-1]
                    ok = np.isnan(step) | ((least[cell] <= step) & (step <= largest[cell]))
                    assert ok.all(), curve
                    for c in rng.integers(0, CELLS, 5).tolist():
                        mine = step[cell == c]
                        if np.isfinite(mine).all():
                            assert least[c] == mine.min() and largest[c] == mine.max()

    @pytest.mark.parametrize("bounds", [(0.0, 1e-310), (1e-310, 3e-310)])
    def test_widths_that_do_not_nest_solve_as_separate_grids(self, bounds, tmp_path, monkeypatch, capsys):
        """Below 2^-1010 the coarse grids are still the scan's views, with the same reports."""

        class LinspaceTables(EffortTables):
            """Each grid its own np.linspace, and each array evaluated on it."""

            def grid(self, points):
                return self.interval.grid(points)

            def array(self, curve, points, order=0):
                return np.asarray(getattr(curve, ORDERS[order])(self.grid(points)), dtype=float)

        interval = EffortInterval(*bounds)
        assert not np.array_equal(interval.grid(MT_GRID_POINTS), interval.grid(SCAN_GRID_POINTS)[::4])
        fixture = Path(__file__).parent / "fixtures" / "scenario_r.json"
        raw = json.loads(fixture.read_text(encoding="utf-8"))
        raw["effort_interval"] = list(bounds)
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        reports = {}
        for store in (EffortTables, LinspaceTables):
            monkeypatch.setattr(tables_module, "EffortTables", store)
            _clear()
            reports[store] = []
            for command in ("validate", "solve-agent", "classify-risk", "analyze", "solve-game"):
                code = run_command([command, str(path)])
                reports[store].append((command, code, capsys.readouterr()))
        assert [code for _, code, _ in reports[EffortTables]] == [0] * 5
        assert reports[EffortTables] == reports[LinspaceTables]


def _fixture(reservation=0.0, component=None, cost=None, interval=(0.0, 1.0)):
    """The reference fixture's economics (perfbench/gen.fixture_scenario), each
    call a new scenario with curves of its own."""
    return Scenario(
        (10.0, 2.0), EffortInterval(*interval), EffortProfile((component or Polynomial((0.2, 0.5)),)),
        AgentPreferences(Polynomial((0.0, 1.0)), cost or Polynomial((0.0, 0.0, 2.0)), reservation),
        PrincipalPreferences(Polynomial((0.0, 1.0))),
    )


def _fill(scenario):
    """Solve a small family on the scenario, so its tables hold every kind of entry."""
    grid = WageGrid(0.0, 3.0, 0.5)
    solve_game(scenario, ContractFamily(grids=(grid, grid)))
    return effort_tables(scenario)


class _Sub(Polynomial):
    """A Polynomial subclass: its curves share no tables, even with each other."""


class TestCarryOver:
    """A scenario of the last one's interval starts with the entries of equal curves."""

    def test_scenarios_that_differ_in_reservation_read_the_same_arrays(self):
        _clear()
        first, second = _fixture(0.0), _fixture(0.4)
        held = _fill(first)
        tables = effort_tables(second)
        assert tables is not held
        for old, new in ((first.profile.components[0], second.profile.components[0]),
                         (first.agent.effort_cost, second.agent.effort_cost)):
            assert old is not new
            for points, order in ((SCAN_GRID_POINTS, 0), (VALIDATION_GRID_POINTS, 1), (CELLS + 1, 0)):
                assert tables.array(new, points, order) is held.array(old, points, order)
            assert tables.enclosure(new) is held.enclosure(old)
            assert tables.enclosure(new, slopes=True) is held.enclosure(old, slopes=True)
            assert tables.steps(new) is held.steps(old)
            assert tables.magnitude(new, 1) == held.magnitude(old, 1)
        # every entry is keyed under, and holds, a curve of the new scenario
        curves = {id(c): c for c in (*second.profile.components, second.agent.effort_cost)}
        for store in (tables._arrays, tables._derived):
            assert store and all(curves.get(key[0]) is entry[0] for key, entry in store.items())
        # and the carried tables give what fresh ones give
        carried = _outcome("game", second, Contract((2.4, 0.0)))
        _clear()
        assert _outcome("game", _fixture(0.4), Contract((2.4, 0.0))) == carried

    @pytest.mark.parametrize("first, second", [
        ({"interval": (0.0, 1.0)}, {"interval": (0.0, math.nextafter(1.0, 2.0))}),
        ({"interval": (0.0, 1.0)}, {"interval": (-0.0, 1.0)}),
        ({"cost": Polynomial((0.0, 0.0, 2.0))}, {"cost": Polynomial((-0.0, 0.0, 2.0))}),
        ({"cost": Polynomial((0.0, 0.0, 2.0))}, {"cost": _Sub((0.0, 0.0, 2.0))}),
        ({"cost": _Sub((0.0, 0.0, 2.0))}, {"cost": _Sub((0.0, 0.0, 2.0))}),
        ({"component": ExpAffine(0.2, 0.5, 0.3)}, {"component": LogAffine(0.2, 0.5, 0.3)}),
    ], ids=["interval-bit", "interval-zero-sign", "coefficient-zero-sign", "subclass", "subclass-twins",
            "family"])
    def test_nothing_is_shared_between_unequal_curves(self, first, second):
        _clear()
        old_scenario, new_scenario = _fixture(**first), _fixture(**second)
        held = _fill(old_scenario)
        tables = effort_tables(new_scenario)
        changed = "component" if "component" in first else "cost"
        new = new_scenario.profile.components[0] if changed == "component" else new_scenario.agent.effort_cost
        keys = {key[0] for store in (tables._arrays, tables._derived) for key in store}
        assert id(new) not in keys
        if "interval" in first:
            assert not keys
        old = old_scenario.profile.components[0] if changed == "component" else old_scenario.agent.effort_cost
        assert tables.array(new, SCAN_GRID_POINTS) is not held.array(old, SCAN_GRID_POINTS)

    def test_entries_of_absent_curves_are_gone(self):
        _clear()
        _fill(_fixture(cost=Polynomial((0.0, 0.0, 2.0))))
        scenario = _fixture(cost=Polynomial((0.0, 0.0, 3.0)))
        tables = effort_tables(scenario)
        component = scenario.profile.components[0]
        for store in (tables._arrays, tables._derived):
            assert store and {key[0] for key in store} == {id(component)}
            assert all(entry[0] is component for entry in store.values())

    def test_a_fill_that_raised_is_never_cached(self):
        """An equal curve that raised in the last scenario raises again, with the same message."""
        _clear()
        undefined = "log-affine curve needs t \\+ -0.2 > 0"
        for _ in range(2):
            scenario = _fixture(component=LogAffine(0.5, 0.1, -0.2))
            tables = effort_tables(scenario)
            component = scenario.profile.components[0]
            for _ in range(2):
                with pytest.raises(DomainError, match=undefined):
                    tables.array(component, SCAN_GRID_POINTS)
            assert tables.array(scenario.agent.effort_cost, SCAN_GRID_POINTS) is not None
        keys = {key[0] for store in (tables._arrays, tables._derived) for key in store}
        assert keys == {id(scenario.agent.effort_cost)}
