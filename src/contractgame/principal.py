"""Principal side: expected payoff and exhaustive backward induction.

The agent's move is solved exactly (per contract) by the agent solver; the
principal's move is completed by enumerating a finite contract family and
keeping the candidate with the best expected payoff among those the agent
accepts.  Most contracts are settled in bulk from tables shared by their
utility-delta row, with the operations of a per-contract solve, so the
result is the one that solve gives; the rest are solved one by one.  Ties between
the agent's optimal efforts are settled by an explicit policy, ties
between contracts by the lexicographically smallest wage vector, so the
result is deterministic regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agent import (
    TAU_EXPECTATION, BestResponse, LinearPayoff, agent_best_response, bisect_brackets,
    settle_points,
)
from .errors import DomainError
from .model import (
    ENUMERATION_CAP, TIE_BREAK_POLICIES, Contract, ContractFamily, Scenario, WageGrid,
)
from .tables import MT_GRID_POINTS, SCAN_GRID_POINTS, EffortTables, effort_tables

__all__ = [
    "ENUMERATION_CAP",
    "SCREEN_CHUNK",
    "DELTA_ROW_MEMO",
    "TIE_BREAK_POLICIES",
    "WageGrid",
    "ContractFamily",
    "GameSolution",
    "principal_expectation",
    "solve_game",
]

SCREEN_CHUNK = 1024  # contracts enumerated and screened at a time
DELTA_ROW_MEMO = 4096  # utility-delta rows whose _Row solve_game keeps

_GUARD = 2.0**1000   # |b| + size below this keeps every scan value finite

# rows per block of _build_rows' dense stage: four scan-long rows, 128 kB an
# array (eight rows were no faster here and raised the peak RSS twice as much)
_BLOCK = 2**14 // (SCAN_GRID_POINTS - 1)

@dataclass(frozen=True)
class GameSolution:
    all_rejected: bool
    contract: Contract | None
    effort: float | None
    principal_payoff: float | None
    agent_payoff: float | None
    tie_break: str
    best_response: BestResponse | None


def principal_expectation(
    scenario: Scenario, contract: Contract, e: float
) -> float:
    """Expected principal utility sum_i p_i(e) B(x_i - w_i)."""
    scenario.interval.require(e)
    return LinearPayoff.principal(scenario, contract).value(e)


def _select_effort(
    response: BestResponse, payoff: LinearPayoff, policy: str
) -> float:
    efforts = response.efforts()
    if policy == "agent-lowest-effort":
        return efforts[0]
    if policy == "agent-highest-effort":
        return efforts[-1]
    if policy == "principal-favorable":
        best_e = efforts[0]
        best_p = payoff.value(best_e)
        for e in efforts[1:]:
            p = payoff.value(e)
            if p > best_p:
                best_e, best_p = e, p
        return best_e
    raise ValueError(f"unknown tie-break policy {policy!r}")


def _respond(scenario: Scenario, contract: Contract, policy: str):
    """One contract's agent response, and the policy's effort and principal value.

    effort and value are None when the agent rejects the contract.
    """
    response = agent_best_response(scenario, contract)
    if not response.accepted:
        return response, None, None
    payoff = LinearPayoff.principal(scenario, contract)
    effort = _select_effort(response, payoff, policy)
    return response, effort, payoff.value(effort)


def _levels(curve, points) -> np.ndarray:
    """curve.eval at each point by the scalar call; NaN where it raises or is not finite."""
    out = np.full(len(points), np.nan)
    for k, t in enumerate(points):
        try:
            out[k] = curve.eval(t)
        except Exception:
            continue
    out[~np.isfinite(out)] = np.nan
    return out


class _FamilyArrays:
    """A contract family as arrays, without building its Contracts.

    Per outcome i: the distinct wages (``values[i]``, Python floats), and
    u(w) and B(x_i - w) there (``u[i]``, ``b[i]``) from the scalar calls
    LinearPayoff makes, NaN where a call raises or is not finite.  Per
    contract, in the family's order: the index of its wage on each axis,
    and whether it has one wage per outcome (``chunk``).
    """

    def __init__(self, scenario: Scenario, family: ContractFamily):
        n = scenario.n_outcomes
        self.family = family
        if family.grids is not None:
            self.values = [g.values() for g in family.grids]
            self.shape = tuple(len(v) for v in self.values)
            self.index = None
            self.fits = len(self.values) == n
        else:
            fits = np.array([len(c) == n for c in family.contracts])
            wages = np.array(
                [c.wages for c in family.contracts if len(c) == n], dtype=float
            ).reshape(-1, n)
            self.index = np.zeros((len(fits), n), dtype=np.intp)
            self.values = []
            for i in range(n):
                # distinct bits: -0.0 and 0.0 may give different utilities
                bits, inverse = np.unique(wages[:, i].view(np.int64), return_inverse=True)
                self.values.append(bits.view(np.float64).tolist())
                self.index[fits, i] = inverse.reshape(-1)
            self.fits = fits
        self.wages = [np.array(v, dtype=float) for v in self.values]
        self.u = self.b = None
        if self.index is not None or self.fits:
            u = scenario.agent.utility
            B = scenario.principal.utility
            self.u = [_levels(u, v) for v in self.values]
            self.b = [
                _levels(B, [x - w for w in v]) for x, v in zip(scenario.outcomes, self.values)
            ]

    def chunk(self, start: int, stop: int):
        """(index, fits) of contracts start..stop-1: (C, n) axis indices, (C,) bools."""
        if self.index is None:
            k = np.arange(start, stop)
            index = np.stack(np.unravel_index(k, self.shape), axis=1)
            return index, np.full(stop - start, self.fits)
        return self.index[start:stop], self.fits[start:stop]

    def contract(self, k: int, index) -> Contract:
        if self.index is None:
            return Contract(tuple(v[j] for v, j in zip(self.values, index)))
        return self.family.contracts[k]

    def matrix(self, levels, index) -> np.ndarray:
        """(C, n) values of per-axis arrays at the contracts' axis indices."""
        return np.stack([axis[index[:, i]] for i, axis in enumerate(levels)], axis=1)


@dataclass(frozen=True, eq=False)
class _Row:
    """A utility-delta row's base-free tables, from which _screen settles
    its contracts; _screen's docstring defines the fields, and _build_rows
    builds them."""

    top: float
    span: float
    size: float
    points: np.ndarray

    @staticmethod
    def _at(scenario: Scenario, deltas, points) -> np.ndarray:
        """The rows a, v, p_1, ... at the points from scalar calls, in value's order."""
        cost = scenario.agent.effort_cost
        p = [[comp.eval(c) for c in points] for comp in scenario.profile.components]
        a = []
        for k in range(len(points)):
            acc = 0.0
            for delta, pk in zip(deltas, p):
                if delta != 0.0:
                    acc = acc + delta * pk[k]
            a.append(acc)
        v = [cost.eval(c) for c in points]
        if not all(map(math.isfinite, a + v)):
            raise DomainError(f"objective is not finite at {points}")
        return np.array([a, v, *p], dtype=float)


def _d1(curve, x: np.ndarray) -> np.ndarray:
    """curve.d1 on the array x; NaN where the call raises, so each point is then called alone."""
    try:
        return np.asarray(curve.d1(x), dtype=float)
    except Exception:
        return np.full(len(x), np.nan)


class _Slopes:
    """The slopes sum_i delta_i p_i'(e) - v'(e) of delta rows, at many points at once.

    ``slopes(rows, x)`` takes arrays of row numbers and points and gives
    each slope with the sign, or zero, of the scalar call
    LinearPayoff.slope(x) that a search of the row alone makes.  The terms
    are summed from numpy's d1 arrays in that call's order, so a row whose
    curves' d1 arrays are the scalar calls bit for bit (d1_array_ulps 0:
    polynomial, tabulated and log-affine) gets the scalar call's value.

    The guard.  Let U be the most ulps a term's d1 array may lie from the
    scalar call (Curve.d1_array_ulps; 2 for exp-affine and power, and
    tests/test_curves.py checks it) and m the row's terms, the cost
    included.  A term's product then differs by at most (2U + 2) u of its
    magnitude, u = 2^-53, and each sum's m roundings move it by at most
    m u of S = sum_i |delta_i p_i'| + |v'|, so the two slopes lie within
    (2U + 2m) u S of each other to first order.  The guard is more than
    twice that, (2U + 2m + 4) 2^-52 S: a value further from 0 has the
    scalar call's sign, even on a numpy build whose d1 arrays are up to
    2U + m + 4 ulps off.  Any other value, or one that is not finite, is
    the scalar call's (``scalar``), and so is every value of a row with a
    curve of no stated bound.  A row whose scalar call raises is marked
    in ``failed``, and its values are NaN from then on.
    """

    def __init__(self, scenario: Scenario, keys, deltas: np.ndarray):
        self.scenario = scenario
        self.keys = keys
        self.deltas = deltas
        self.components = scenario.profile.components
        self.cost = scenario.agent.effort_cost
        used = deltas != 0.0
        self.full = used.all(axis=0)  # the components every row has a term of
        ulps = [getattr(c, "d1_array_ulps", math.inf) for c in (*self.components, self.cost)]
        ulps = np.where(used, ulps[:-1], 0.0).max(axis=1, initial=ulps[-1])
        terms = used.sum(axis=1) + 1.0
        self.guard = np.where(ulps == 0.0, 0.0, (2.0 * ulps + 2.0 * terms + 4.0) * 2.0**-52)
        self.exact = not self.guard.any()
        self.failed = np.zeros(len(keys), dtype=bool)

    def __call__(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        deltas = self.deltas[rows]
        g = np.zeros(len(rows))
        size = np.zeros(len(rows))
        for i, comp in enumerate(self.components):
            if self.full[i]:
                use = slice(None)
            else:
                use = np.flatnonzero(deltas[:, i])
                if not len(use):
                    continue
            term = deltas[use, i] * _d1(comp, x[use])
            g[use] = g[use] + term
            if not self.exact:
                size[use] = size[use] + np.abs(term)
        v = _d1(self.cost, x)
        g = g - v
        if self.exact:
            redo = ~(np.abs(g) > 0.0)
        else:
            redo = ~(np.abs(g) > self.guard[rows] * (size + np.abs(v)))
        for k in np.flatnonzero(redo).tolist():
            g[k] = self.scalar(int(rows[k]), float(x[k]))
        return g

    def scalar(self, row: int, x: float) -> float:
        """The scalar call LinearPayoff.slope(x) of the row, or NaN once it has raised."""
        if not self.failed[row]:
            try:
                return LinearPayoff(self.scenario, (*self.keys[row], 0.0), self.cost).slope(x)
            except Exception:
                self.failed[row] = True
        return math.nan


def _runs(at: np.ndarray, width: int):
    """(first, last): the ends of each run of consecutive indices in at, sorted
    flat indices into a (rows x width) array; no run crosses a row."""
    col = at % width
    first = (col == 0) | (np.diff(at, prepend=-2) != 1)
    last = (col == width - 1) | (np.diff(at, append=-2) != 1)
    return at[first], at[last]


def _build_rows(scenario: Scenario, tables: EffortTables, keys) -> list:
    """The _Row of each utility-delta row in keys (tuples), or None where it has no screen.

    _screen's docstring defines the tables, and a row's are those that
    searching it alone gives, bit for bit.  The rows are built together, in
    three stages:

    - dense: h on the scan and the slope on the bracket grid as
      (rows x grid) arrays, _BLOCK rows at a time, summed from 0.0 in
      LinearPayoff.scans' and on_grid's order by broadcasting, not by a matrix
      product (a masked add only in a column where some row skips a zero
      delta), so each value keeps its bits (``sums``); top and low by axis
      reductions; and as flat indices the bracket grid's zeros and sign
      changes and h's scan maxima (agent.scan_candidates' rule: no lower
      than either neighbour), whose runs (_runs) give the zero-run edges
      and the peak brackets;
    - bisection: every sign change and scan-peak bracket of every row in one
      lockstep loop (agent.bisect_brackets) on _Slopes;
    - finish: settle_points and _at, one row at a time.

    A row is None when its tables raise or are not finite, when a scan
    peak brackets no sign change of the slope (an open bracket), or when a
    scalar call on it raises.
    """
    count = len(keys)
    components = scenario.profile.components
    cost = scenario.agent.effort_cost
    deltas = np.array(keys, dtype=float).reshape(count, len(components))
    built = [None] * count

    def sums(block: np.ndarray, used: np.ndarray, points: int, order: int):
        """on_grid of each row of the block, and the rows whose arrays raise."""
        acc = np.zeros((len(block), points))
        failed = np.zeros(len(block), dtype=bool)
        for i, comp in enumerate(components):
            use = used[:, i]
            if use.any():
                try:
                    values = tables.array(comp, points, order)
                except Exception:
                    failed |= use
                    continue
                term = block[:, i, None] * values
                if use.all():
                    acc += term
                else:
                    np.add(acc, term, out=acc, where=use[:, None])
        try:
            acc -= tables.array(cost, points, order)
        except Exception:
            failed[:] = True
        return acc, failed

    try:
        v = tables.array(cost, SCAN_GRID_POINTS)
    except Exception:
        return built
    cost_size = float(max(v.max(), -v.min()))  # the effort cost's largest magnitude
    scan, grid = tables.grid(SCAN_GRID_POINTS), tables.grid(MT_GRID_POINTS)
    used = deltas != 0.0
    stats = np.zeros((3, count))  # top, low, size
    # the rows that pass the dense stage, and flat indices into their
    # (rows x grid) arrays of the slope's zeros and sign changes on the
    # bracket grid and of h's interior scan maxima
    passed, zeros, changes, peaks = [], [], [], []
    held = 0
    with np.errstate(all="ignore"):
        for start in range(0, count, _BLOCK):
            stop = min(start + _BLOCK, count)
            h, failed = sums(deltas[start:stop], used[start:stop], SCAN_GRID_POINTS, 0)
            top, low = h.max(axis=1), h.min(axis=1)
            size = np.where(-low > top, -low, top) + 2.0 * cost_size
            stats[:, start:stop] = top, low, size
            sel = np.flatnonzero(~failed & np.isfinite(size)) + start
            if not len(sel):
                continue
            rows = sel if len(sel) < stop - start else slice(start, stop)
            gv, failed = sums(deltas[rows], used[rows], MT_GRID_POINTS, 1)
            finite = ~failed & np.isfinite(gv).all(axis=1)
            if not finite.all():
                sel, gv = sel[finite], gv[finite]
            if len(sel) < stop - start:
                h = h[sel - start]
            sign = np.sign(gv)  # the product of the values may underflow to 0 or overflow
            inner = h[:, 1:-1]
            passed.append(sel)
            zeros.append(np.flatnonzero(gv == 0.0) + held * MT_GRID_POINTS)
            changes.append(np.flatnonzero(sign[:, :-1] * sign[:, 1:] < 0.0) + held * (MT_GRID_POINTS - 1))
            peak = (inner >= h[:, :-2]) & (inner >= h[:, 2:])
            peaks.append(np.flatnonzero(peak) + held * (SCAN_GRID_POINTS - 2))
            held += len(sel)

        empty = np.zeros(0, dtype=np.intp)
        passed = np.concatenate([empty, *passed])
        alive = np.zeros(count, dtype=bool)
        alive[passed] = True
        # zero runs: each run's first and last point, a lone zero twice
        first, last = _runs(np.concatenate([empty, *zeros]), MT_GRID_POINTS)
        ends = np.stack([first, last], axis=1).reshape(-1)
        edge_rows, edge_values = passed[ends // MT_GRID_POINTS], grid[ends % MT_GRID_POINTS]
        # sign changes, then scan-peak runs (the run of interior points
        # j + 1 .. k + 1 of a row brackets scan[j] .. scan[k + 2])
        r, j = np.divmod(np.concatenate([empty, *changes]), MT_GRID_POINTS - 1)
        first, last = _runs(np.concatenate([empty, *peaks]), SCAN_GRID_POINTS - 2)
        p, k = np.divmod(first, SCAN_GRID_POINTS - 2)
        item_rows = np.concatenate([passed[r], passed[p]])
        order = np.argsort(item_rows, kind="stable")
        item_rows = item_rows[order]
        a = np.concatenate([grid[j], scan[k]])[order]
        b = np.concatenate([grid[j + 1], scan[last % (SCAN_GRID_POINTS - 2) + 2]])[order]
        snap = np.concatenate([np.zeros(len(r), dtype=bool), np.ones(len(p), dtype=bool)])[order]
        slopes = _Slopes(scenario, keys, deltas)
        roots = np.zeros(0)
        if len(item_rows):
            roots = bisect_brackets(lambda k, x: slopes(item_rows[k], x), a, b, snap)
    alive[item_rows[np.isnan(roots)]] = False  # open scan-peak brackets
    alive &= ~slopes.failed

    every = np.arange(count + 1)
    edge_at = np.searchsorted(edge_rows, every).tolist()
    root_at = np.searchsorted(item_rows, every).tolist()
    edge_values, roots = edge_values.tolist(), roots.tolist()
    top, low, size = stats.tolist()
    for r in np.flatnonzero(alive).tolist():
        candidates = edge_values[edge_at[r]:edge_at[r + 1]] + roots[root_at[r]:root_at[r + 1]]
        try:
            points = _Row._at(scenario, keys[r], settle_points(candidates, scenario.interval))
        except Exception:
            continue
        a_max, v_max = np.abs(points[:2]).max(axis=1).tolist()
        built[r] = _Row(top[r], top[r] - low[r], max(size[r], a_max + v_max), points)
    return built


def _screen(scenario: Scenario, row_tables, arrays: _FamilyArrays, index, fits, policy: str):
    """Settle the contracts of one chunk from their rows' tables, where that is exact.

    Returns (screened, accepted, value) per contract; accepted and value
    (the principal's payoff at the policy's effort) are as the contract's
    own solve gives them wherever screened is set.  row_tables(keys) gives
    the _Row, or None, of each utility-delta row (LinearPayoff.deltas) in
    keys.

    The row.  A contract with base b = u(w_n) in a delta row has the
    payoff b + h, with h = a - v base-free (a = sum_i delta_i p_i, v the
    cost).  Its solve (agent.hybrid_maximize) reads the scan of h for its
    flat test's spread and its scan peaks; b enters only the test's
    tolerance, the constant result, the finiteness of (b + a) - v on the
    scan and golden section.  The row (_build_rows) computes h with the
    solve's operations and keeps:

    - ``top`` and ``span``: max h and max h - min h, so the flat test
      span <= TAU_EXPECTATION * max(1, |b + top|) is the solve's own;
    - ``size``: max |h| + 2 max |v|, which bounds every |a_j| + |v_j| on
      the scan to rounding and is at least max |a| + max |v| at the points
      below, so |b| + size < 2^1000 keeps (b + a) - v finite;
    - ``points``: the settled candidates of a solve that is not flat (the
      bracket-grid roots and the roots h's scan peaks snap onto), as an
      array with one column per effort and the rows a, v, p_1, ...,
      p_{n-1}, from scalar calls, as settle and the principal make them.

    A row has no screen (None) when its tables raise or are not finite, or
    a scan peak of h brackets no sign change of the slope (an open
    bracket, for golden section).  Otherwise a contract whose flat test
    fails and with |b| + size < 2^1000 is decided: its solve neither
    raises nor takes the flat shortcut, and settles the row's points.

    Exact values.  A decided contract's settle values are
    F_k = (b + a_k) - v_k at the row's points, a_k and v_k from the same
    scalar calls in the same order, so the same IEEE operations; its best
    value, tie set and acceptance follow with the operations settle uses.
    The principal's value at each tied point is B(x_n - w_n) plus the
    nonzero deltas times p_i there, added from 0.0 in component order as
    LinearPayoff.value adds them.  Left unscreened: rows without a screen,
    contracts that take the flat shortcut, and accepted contracts whose
    principal levels or deltas are not finite or whose tied values are NaN.
    """
    count = len(fits)
    screened = np.zeros(count, dtype=bool)
    accepted = np.zeros(count, dtype=bool)
    value = np.full(count, np.nan)
    if arrays.u is None or not fits.any():
        return screened, accepted, value
    levels = arrays.matrix(arrays.u, index)
    deltas = levels[:, :-1] - levels[:, -1:]
    ok = np.nonzero(fits & np.isfinite(levels).all(axis=1) & np.isfinite(deltas).all(axis=1))[0]
    if len(ok) == 0:
        return screened, accepted, value
    if deltas.shape[1] == 1:
        distinct, which = np.unique(deltas[ok, 0], return_inverse=True)
        distinct = distinct[:, None]
    else:
        distinct, which = np.unique(deltas[ok], axis=0, return_inverse=True)
    which = which.reshape(-1)

    row_screens = row_tables([tuple(d) for d in distinct.tolist()])

    # per row: top, span, size (a row without a screen has size inf, so
    # none of its contracts is decided) and its points' offset in cells
    n_comp = levels.shape[1] - 1
    stats = np.array(
        [(0.0, 0.0, math.inf) if sc is None else (sc.top, sc.span, sc.size)
         for sc in row_screens]
    ).T
    set_len = np.array([0 if sc is None else sc.points.shape[1] for sc in row_screens])
    set_off = np.cumsum(set_len) - set_len
    cells = np.concatenate(
        [np.zeros((2 + n_comp, 0))] + [sc.points for sc in row_screens if sc is not None], axis=1
    )
    a_all, v_all, p_all = cells[0], cells[1], cells[2:]

    top, span, row_size = (x[which] for x in stats)
    base = levels[ok, -1]
    with np.errstate(all="ignore"):
        not_flat = span > TAU_EXPECTATION * np.maximum(1.0, np.abs(base + top))
        decided = (np.abs(base) + row_size < _GUARD) & not_flat
    if not decided.any():
        return screened, accepted, value
    rows = ok[decided]
    row_of = which[decided]
    base = base[decided]

    # one cell per contract and candidate point; first[c] is contract c's first
    lengths = set_len[row_of]
    first = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(rows)), lengths)
    pos = np.arange(len(owner))
    cell = pos - first[owner] + set_off[row_of][owner]
    with np.errstate(all="ignore"):
        f = (base[owner] + a_all[cell]) - v_all[cell]
        best = np.maximum.reduceat(f, first)
        tie = best[owner] - f <= TAU_EXPECTATION * np.maximum(1.0, np.abs(best))[owner]
        yes = best >= scenario.agent.reservation_utility

        principal = arrays.matrix(arrays.b, index[rows])
        pdeltas = principal[:, :-1] - principal[:, -1:]
        principal_ok = np.isfinite(principal).all(axis=1) & np.isfinite(pdeltas).all(axis=1)
        acc = np.zeros(len(owner))
        for i in range(n_comp):
            d = pdeltas[owner, i]
            acc = np.where(d != 0.0, acc + d * p_all[i, cell], acc)
        pv = principal[owner, -1] + acc
        # the policy's value: at the first or last tied point, or the best
        # tied value, which _select_effort's first strictly better one has
        if policy == "agent-lowest-effort":
            chosen = pv[np.minimum.reduceat(np.where(tie, pos, len(pos)), first)]
        elif policy == "agent-highest-effort":
            chosen = pv[np.maximum.reduceat(np.where(tie, pos, -1), first)]
        else:
            chosen = np.maximum.reduceat(np.where(tie, pv, -np.inf), first)
    unsure = np.logical_or.reduceat(tie & np.isnan(pv), first)
    keep = ~yes | (principal_ok & ~unsure)
    screened[rows[keep]] = True
    accepted[rows[keep]] = yes[keep]
    value[rows[keep]] = np.where(yes, chosen, np.nan)[keep]
    return screened, accepted, value


def _winner(wages: np.ndarray, accepted, value, incumbent):
    """The chunk's first accepted contract of least key (-value, wages), as
    (key, position in the chunk), if its key is below the key of the
    incumbent, a (key, contract) pair; else the incumbent.

    A NaN value never compares below another key, nor another below it, so
    with one the keys are compared in order, as a per-contract loop does.
    """
    found = np.nonzero(accepted)[0]
    if len(found) == 0:
        return incumbent
    if np.isnan(value[found]).any():
        for k in found:
            key = (-float(value[k]), tuple(wages[k].tolist()))
            if incumbent is None or key < incumbent[0]:
                incumbent = (key, k)
        return incumbent
    top = value[found].max()
    found = found[value[found] == top]
    k = found[np.lexsort(wages[found].T[::-1])[0]]
    key = (-float(value[k]), tuple(wages[k].tolist()))
    if incumbent is None or key < incumbent[0]:
        return key, k
    return incumbent


def solve_game(
    scenario: Scenario,
    family: ContractFamily,
    tie_break: str = "principal-favorable",
) -> GameSolution:
    """Backward induction against a finite contract family.

    For every candidate the agent's problem is solved first; rejected
    contracts are discarded, the rest are scored by the principal's
    expectation at the tie-break effort, and the least key (-value, wages)
    wins, the first such contract on a tie.  The family is enumerated as
    arrays, SCREEN_CHUNK contracts at a time, and grouped by utility-delta
    row.  Most contracts are settled from their row's tables (_screen,
    where the argument that makes this exact is set out); the rest are solved
    one by one, in order, by agent_best_response, so an error is raised at
    the same contract as by a loop of its calls.  The screen decides only
    acceptance and the principal's value; the winner's BestResponse comes
    from agent_best_response once more, which gives the result of that loop
    (_screen: a screened contract's own solve is its row's result).
    """
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(
            f"unknown tie-break policy {tie_break!r}; "
            f"choose one of {TIE_BREAK_POLICIES}"
        )
    family.require_within_cap()
    tables = effort_tables(scenario)
    rows = {}  # the last DELTA_ROW_MEMO rows met, oldest first

    def row_tables(keys: list) -> list:
        """The _Row of each utility-delta row in keys, or None.  The rows
        not held are built in one _build_rows call and added in order.  A
        row without a screen is kept as None: its contracts are solved one
        by one, which raises the same error at the same contract."""
        new = [key for key in keys if key not in rows]
        built = dict(zip(new, _build_rows(scenario, tables, new))) if new else {}
        found = [rows[key] if key in rows else built[key] for key in keys]
        for key, row in built.items():
            if len(rows) >= DELTA_ROW_MEMO:
                del rows[next(iter(rows))]
            rows[key] = row
        return found

    arrays = _FamilyArrays(scenario, family)
    incumbent = None  # (key, contract) of the best accepted contract so far
    total = family.size()
    for start in range(0, total, SCREEN_CHUNK):
        stop = min(start + SCREEN_CHUNK, total)
        index, fits = arrays.chunk(start, stop)
        screened, accepted, value = _screen(scenario, row_tables, arrays, index, fits, tie_break)
        for k in np.nonzero(~screened)[0].tolist():
            response, _, v = _respond(scenario, arrays.contract(start + k, index[k]), tie_break)
            accepted[k] = response.accepted
            value[k] = np.nan if v is None else v
        found = _winner(arrays.matrix(arrays.wages, index), accepted, value, incumbent)
        if found is not incumbent:
            key, k = found
            incumbent = key, arrays.contract(start + int(k), index[k])
    if incumbent is None:
        return GameSolution(
            all_rejected=True,
            contract=None,
            effort=None,
            principal_payoff=None,
            agent_payoff=None,
            tie_break=tie_break,
            best_response=None,
        )
    contract = incumbent[1]
    response, effort, value = _respond(scenario, contract, tie_break)
    return GameSolution(
        all_rejected=False,
        contract=contract,
        effort=effort,
        principal_payoff=value,
        agent_payoff=response.optimal_expectation,
        tie_break=tie_break,
        best_response=response,
    )
