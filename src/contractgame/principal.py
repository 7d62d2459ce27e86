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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .agent import (
    FINITE_BOUND, REFINE_TOL, TAU_E, TAU_EXPECTATION, BestResponse, LinearPayoff,
    agent_best_response, best_response_from, bisect_brackets, ties,
)
from .model import (
    ENUMERATION_CAP, TIE_BREAK_POLICIES, Contract, ContractFamily, Scenario, WageGrid,
)
from .tables import CELLS, MT_GRID_POINTS, SCAN_GRID_POINTS, EffortTables, effort_tables

__all__ = [
    "ENUMERATION_CAP",
    "SCREEN_CHUNK",
    "TIE_BREAK_POLICIES",
    "WageGrid",
    "ContractFamily",
    "GameSolution",
    "principal_expectation",
    "solve_game",
]

SCREEN_CHUNK = 2**16  # contracts enumerated and screened at a time


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


def _select_effort(response: BestResponse, payoff: LinearPayoff, policy: str):
    """(effort, the principal's value there) of the policy's tied effort:
    the lowest, the highest, or the first of the best principal values."""
    efforts = response.efforts()
    if policy == "agent-lowest-effort":
        efforts = efforts[:1]
    elif policy == "agent-highest-effort":
        efforts = efforts[-1:]
    best_e = efforts[0]
    best_p = payoff.value(best_e)
    for e in efforts[1:]:
        p = payoff.value(e)
        if p > best_p:
            best_e, best_p = e, p
    return best_e, best_p


def _respond(scenario: Scenario, contract: Contract, policy: str, response=None):
    """One contract's agent response (agent_best_response's, unless given),
    and the policy's effort and principal value.

    effort and value are None when the agent rejects the contract.
    """
    if response is None:
        response = agent_best_response(scenario, contract)
    if not response.accepted:
        return response, None, None
    effort, value = _select_effort(response, LinearPayoff.principal(scenario, contract), policy)
    return response, effort, value


def _array_ulps(curve, method: str) -> float:
    """How far curve's method ("eval" or "d1") on an array may lie from its
    scalar calls, as Curve.eval_array_ulps or d1_array_ulps states it (0:
    the same bits): infinite where the method is not its family's own
    (Curve.has_family_methods)."""
    return getattr(curve, f"{method}_array_ulps") if curve.has_family_methods(method) else math.inf


def _evals(curve, x: np.ndarray):
    """(values, raised): curve.eval at each point of x as the scalar call
    gives it, and whether that call raises.

    One array call where it is the scalar calls bit for bit (_array_ulps
    0: polynomial and tabulated) and does not raise; else one scalar call
    per point.
    """
    if _array_ulps(curve, "eval") == 0.0:
        try:
            return np.asarray(curve.eval(x), dtype=float), np.zeros(len(x), dtype=bool)
        except Exception:
            pass
    values, raised = np.full(len(x), np.nan), np.zeros(len(x), dtype=bool)
    for k, t in enumerate(x.tolist()):
        try:
            values[k] = curve.eval(t)
        except Exception:
            raised[k] = True
    return values, raised


def _levels(curve, points) -> np.ndarray:
    """curve.eval at each point as the scalar call gives it; NaN where it raises or is not finite."""
    values, raised = _evals(curve, np.array(points, dtype=float))
    return np.where(raised | ~np.isfinite(values), np.nan, values)


class _FamilyArrays:
    """The first ``size`` contracts of a family as arrays, without building them.

    They are those before its first contract whose wage count is not the
    outcome count (a grid family of the wrong grid count has none).  Per
    outcome i: their distinct wages (``values[i]``, Python floats distinct
    by bits), and u(w) and B(x_i - w) there (``u[i]``, ``b[i]``) from the
    scalar calls LinearPayoff makes, NaN where a call raises or is not
    finite.  Per contract, in the family's order: the index of its wage on
    each axis.
    """

    def __init__(self, scenario: Scenario, family: ContractFamily):
        n = scenario.n_outcomes
        if family.grids is not None:
            self.values = [g.values() for g in family.grids]
            self.shape = tuple(len(v) for v in self.values)
            self.index = None
            self.size = family.size() if len(self.values) == n else 0
        else:
            contracts = family.contracts
            self.size = next((k for k, c in enumerate(contracts) if len(c) != n), len(contracts))
            wages = np.array([c.wages for c in contracts[:self.size]], dtype=float).reshape(-1, n)
            self.index = np.zeros((self.size, n), dtype=np.intp)
            self.values = []
            for i in range(n):
                # distinct bits: -0.0 and 0.0 may give different utilities
                bits, inverse = np.unique(wages[:, i].view(np.int64), return_inverse=True)
                self.values.append(bits.view(np.float64).tolist())
                self.index[:, i] = inverse.reshape(-1)
        self.wages = [np.array(v, dtype=float) for v in self.values]
        u = scenario.agent.utility
        B = scenario.principal.utility
        self.u = [_levels(u, v) for v in self.values]
        self.b = [_levels(B, [x - w for w in v]) for x, v in zip(scenario.outcomes, self.values)]

    def base_size(self) -> float:
        """The largest finite |u(w_n)| of the contracts."""
        last = self.u[-1]
        return float(np.abs(last[np.isfinite(last)]).max(initial=0.0))

    def chunk(self, start: int, stop: int) -> np.ndarray:
        """The (C, n) axis indices of contracts start..stop-1."""
        if self.index is None:
            k = np.arange(start, stop)
            return np.stack(np.unravel_index(k, self.shape), axis=1)
        return self.index[start:stop]

    def contract(self, index) -> Contract:
        return Contract(tuple(v[j] for v, j in zip(self.values, index)))

    def matrix(self, levels, index) -> np.ndarray:
        """(C, n) values of per-axis arrays at the contracts' axis indices."""
        return np.stack([axis[index[:, i]] for i, axis in enumerate(levels)], axis=1)


def _d1(curve, x: np.ndarray) -> np.ndarray:
    """curve.d1 on the array x; NaN where the call raises, so each point is then called alone."""
    try:
        return np.asarray(curve.d1(x), dtype=float)
    except Exception:
        return np.full(len(x), np.nan)


class _Slopes:
    """The slopes sum_i delta_i p_i'(e) - v'(e) of delta rows, at many points at once.

    ``slopes.bind(rows)`` is a function g(k, x) for agent.bisect_brackets,
    of bracket numbers k (each of row rows[k]) and points x, arrays both:
    each slope, with the sign or zero of the scalar call
    LinearPayoff.slope(x) that a search of the row alone makes.  Each
    curve that some row of a call uses has its d1 array taken once on all
    the points; its terms are added at the rows with a nonzero delta (with
    no mask where every row of the call has one), in component order,
    then v' is subtracted: that call's order, so a row whose curves' d1
    arrays are the scalar calls bit for bit (d1_array_ulps 0: polynomial,
    tabulated and log-affine) gets the scalar call's value.  The sum
    starts from the first term, not from 0.0 + it: the two differ only in
    the sign of a zero, and every zero is the scalar call's (below).

    The guard.  Let U be the most ulps a term's d1 array may lie from the
    scalar call (_array_ulps: Curve.d1_array_ulps of a class whose d1 is
    its family's own; 2 for exp-affine and power, and
    tests/test_curves.py checks it) and m the row's terms, the cost
    included.  A term's product then differs by at most (2U + 2) u of its
    magnitude, u = 2^-53, and each sum's m roundings move it by at most
    m u of S = sum_i |delta_i p_i'| + |v'|, so the two slopes lie within
    (2U + 2m) u S of each other to first order.  The guard is more than
    twice that, (2U + 2m + 4) 2^-52 S: a value further from 0 has the
    scalar call's sign, even on a numpy build whose d1 arrays are up to
    2U + m + 4 ulps off.  Any other value, or one that is not finite, is
    the scalar call's (``scalar``), and so is every value of a row with a
    curve of no stated bound.  A row of exact curves (U = 0) has guard 0:
    its value is the scalar call's, and goes to that call only where it is
    0 or not finite, which gives the same value back; when every row is
    exact, S is not summed, and a call whose values hold no zero and have
    a finite sum of squares (so none is infinite or NaN) redoes none.  A
    row whose scalar call raises is marked in ``failed``, and its values
    are NaN from then on.
    """

    def __init__(self, scenario: Scenario, deltas: np.ndarray):
        self.scenario = scenario
        self.deltas = deltas
        self.components = scenario.profile.components
        self.cost = scenario.agent.effort_cost
        used = deltas != 0.0
        # per component, its deltas and their use, each contiguous
        self.columns, self.uses = deltas.T.copy(), used.T.copy()
        ulps = [_array_ulps(c, "d1") for c in (*self.components, self.cost)]
        ulps = np.where(used, ulps[:-1], 0.0).max(axis=1, initial=ulps[-1])
        terms = used.sum(axis=1) + 1.0
        self.guard = np.where(ulps == 0.0, 0.0, (2.0 * ulps + 2.0 * terms + 4.0) * 2.0**-52)
        self.exact = not self.guard.any()
        self.failed = np.zeros(len(deltas), dtype=bool)

    def bind(self, rows: np.ndarray):
        """g(k, x) for agent.bisect_brackets: the slopes of rows[k] at x.

        What a call gathers for k (its rows, and each used component's
        deltas and use there) is kept while the calls after it pass the
        same k object, as the lockstep loop does until it compacts its live
        brackets.
        """
        held = [None, None]

        def g(k, x):
            if held[0] is not k:
                held[:] = k, self._gather(rows[k])
            return self._sum(held[1], x)

        return g

    def _gather(self, rows: np.ndarray):
        """(rows, terms, guard) of a call on rows: per component some row
        uses, (curve, its deltas at rows, their use or None where every row
        uses it); the rows' guards, or None when every row is exact."""
        terms = []
        for comp, column, uses in zip(self.components, self.columns, self.uses):
            use = uses[rows]
            count = np.count_nonzero(use)
            if count:
                terms.append((comp, column[rows], None if count == len(rows) else use))
        return rows, terms, None if self.exact else self.guard[rows]

    def _sum(self, gathered, x: np.ndarray) -> np.ndarray:
        rows, terms, guard = gathered
        g = size = 0.0
        for k, (comp, delta, use) in enumerate(terms):
            term = delta * _d1(comp, x)
            if use is not None:
                term = np.where(use, term, 0.0)
            g = g + term if k else term
            if guard is not None:
                size = size + np.abs(term)
        v = _d1(self.cost, x)
        g = g - v
        if guard is None:
            # no zero, and a finite sum of squares: every value finite
            if np.count_nonzero(g) == len(g) and math.isfinite(g.dot(g)):
                return g
            redo = ~(np.isfinite(g) & (g != 0.0))
        else:
            redo = ~(np.abs(g) > guard * (size + np.abs(v)))
        for k in redo.nonzero()[0].tolist():
            g[k] = self.scalar(int(rows[k]), float(x[k]))
        return g

    def scalar(self, row: int, x: float) -> float:
        """The scalar call LinearPayoff.slope(x) of the row, or NaN once it has raised."""
        if not self.failed[row]:
            try:
                levels = (*self.deltas[row].tolist(), 0.0)
                return LinearPayoff(self.scenario, levels, self.cost).slope(x)
            except Exception:
                self.failed[row] = True
        return math.nan


def _runs(at: np.ndarray, width: int):
    """(first, last): the ends of each run of consecutive indices in at, sorted
    flat indices into a (rows x width) array; no run crosses a row."""
    col = at % width
    apart = at[1:] - at[:-1] != 1
    first = (col == 0) | np.concatenate([[True], apart])
    last = (col == width - 1) | np.concatenate([apart, [True]])
    return at[first], at[last]


def _settle(rows: np.ndarray, at: np.ndarray, candidates: np.ndarray, interval):
    """agent.settle_points of many rows at once.

    rows are distinct row numbers in increasing order, and candidates[k] is
    a candidate of row at[k], each row's in the order settle_points is
    given them.  Returns (owner, points): every settled point and its row,
    by row and then point, so that each row's points are the list
    settle_points gives, bit for bit.
    """
    lo, hi = interval.lo, interval.hi
    if hi - lo <= TAU_E:
        # every clamped candidate lies within TAU_E of lo: the dedup leaves
        # lo alone, and both ends stay
        return np.repeat(rows, 2), np.tile([lo, hi], len(rows))
    # as min(max(c, lo), hi), which keeps c on a tie of signed zeros
    x = np.where(lo > candidates, lo, candidates)
    x = np.where(hi < x, hi, x)
    owner = np.concatenate([rows, rows, at])
    x = np.concatenate([np.full(len(rows), lo), np.full(len(rows), hi), x])
    # a stable sort: equal points keep the order lo, hi, candidates
    order = np.lexsort((x, owner))
    owner, x = owner[order], x[order]
    # a point is kept when it lies more than TAU_E above its row's last kept
    # point.  One more than TAU_E above the point before it is, and starts
    # a chain of points each within TAU_E of the one before; the chain's
    # second point is not.  So only the later points of the chains are
    # walked, one position of every chain at a time
    close = np.zeros(len(x), dtype=bool)
    close[1:] = (owner[1:] == owner[:-1]) & (x[1:] - x[:-1] <= TAU_E)
    every = np.arange(len(x))
    head = np.maximum.accumulate(np.where(close, 0, every))
    step = every - head
    keep = ~close
    last = x.copy()  # at a chain's head: the chain's last kept point
    for j in range(2, step.max(initial=0) + 1):
        k = np.flatnonzero(step == j)
        k = k[~(x[k] - last[head[k]] <= TAU_E)]
        keep[k] = True
        last[head[k]] = x[k]
    return owner[keep], x[keep]


def _weighted(deltas: np.ndarray, used: np.ndarray, values, cost: np.ndarray) -> np.ndarray:
    """sum_i deltas[:, i] values(i) - cost, one row per delta row.

    Summed from 0.0 in LinearPayoff.on_grid's order by broadcasting, not
    by a matrix product, each term by one add, masked to the rows that use
    it unless every row does, so each value keeps the bits of the
    per-contract arrays.  values(i) is read only when some row uses
    curve i.
    """
    acc = np.zeros(np.broadcast_shapes((len(deltas), 1), cost.shape))
    for i in range(deltas.shape[1]):
        use = used[:, i]
        count = np.count_nonzero(use)
        if not count:
            continue
        if count == len(use):
            acc += deltas[:, i, None] * values(i)
        else:
            np.add(acc, deltas[:, i, None] * values(i), out=acc, where=use[:, None])
    acc -= cost
    return acc


# scan and bracket-grid steps per cell
_STEP = (SCAN_GRID_POINTS - 1) // CELLS
_GRID_STEP = (MT_GRID_POINTS - 1) // CELLS
# kept cells per group of the dense stage, rows per block of _cells and
# (row, cell) pairs per chunk of its first-order test: arrays of about 2^12
# values, 32 kB
_BLOCK = 2**12 // (_STEP + 3)
_ROWS = 2**12 // (CELLS + 1)
_PAIRS = 2**12
# each cell's window into a curve's scan, padded with its ends repeated,
# followed by its bracket-grid slope: the scan from one point below the
# cell to one point above it, then the slope on the cell
_WINDOW = np.concatenate([
    np.arange(CELLS)[:, None] * _STEP + np.arange(_STEP + 3),
    SCAN_GRID_POINTS + 2 + np.arange(CELLS)[:, None] * _GRID_STEP + np.arange(_GRID_STEP + 1),
], axis=1)


def _cell_data(tables: EffortTables, curve):
    """What _cells reads of a curve, made once per curve and tables
    (EffortTables.derive): None where its enclosure, steps or d1 table
    raises or is not finite; else (factors, size, slope size, edge values,
    slope enclosure, slope bound).  factors is (3, 2, CELLS): per cell, the
    enclosure's upper and lower bound, the steps' least and largest, and
    minus their largest and least; size is the enclosure's largest
    magnitude and slope size the d1 table's; edge values are the curve at
    the cell edges; the slope enclosure is None where it is not finite,
    and the slope bound is its largest magnitude, else 0.
    """

    def make():
        enclosure = tables.enclosure(curve)
        if enclosure is None or not np.isfinite(enclosure).all():
            return None
        try:
            steps, slope_size = np.array(tables.steps(curve)), tables.magnitude(curve, 1)
        except Exception:
            return None
        if not (np.isfinite(steps).all() and math.isfinite(slope_size)):
            return None
        factors = np.array([enclosure[::-1], steps, -steps[::-1]])
        at_edges = tables.array(curve, CELLS + 1).copy()  # contiguous, which the sums read faster
        for shared in (factors, at_edges):
            shared.flags.writeable = False  # shared, as the tables' entries are
        slope, slope_bound = tables.enclosure(curve, slopes=True), 0.0
        if slope is None or not np.isfinite(slope).all():
            slope = None
        else:
            slope_bound = np.maximum(-slope[0], slope[1]).max()
        size = np.abs(enclosure).max()
        return factors, size, slope_size, at_edges, slope, slope_bound

    return tables.derive(curve, "cells", make)


def _cells(scenario: Scenario, tables: EffortTables, deltas, used, base_size: float):
    """The cells of each delta row that can hold a contract's maximizer or a scan peak of h.

    Returns (kept, floor, low, size, slope_size): kept is (rows x CELLS),
    all set for a row that takes the full build; the rest are per row, for
    a pruned one: the least h its best kept point must reach, the least h
    at the cell edges, its enclosure size and
    sum_i |delta_i| max |p_i'| + max |v'|.

    The bound.  With P_i and V the enclosures of p_i and v on a cell
    (EffortTables.enclosure), every point of the cell has
    h <= U = sum_i max(delta_i P_i) - min V, to rounding (U is a sum of
    products in some order: one batched matrix product of h's weights
    split by sign and the curves' _cell_data factors gives U and the step
    sums below as a (3, rows, CELLS) array, _ROWS rows at a time, and a
    BLAS sum, reordered or fused, rounds no more than m products and
    adds).  L is the row's best h at the cell edges (summed by _weighted
    from the curves' values there, EffortTables.array, so the scan's
    bits), Z = base_size + max over the interval of sum_i |delta_i p_i| +
    |v| (from the enclosures), and tau = TAU_EXPECTATION max(1, Z) is at
    least the tie tolerance of every contract of the family on the row.
    A cell is pruned when U < L - tau - margin, margin = (8m + 2^9) 2^-53 Z
    with m the row's terms.  If the best kept point has h >= floor =
    L - 2^8 2^-53 Z (checked by the build), every point of a pruned cell
    lies further below every contract's best value than its tie
    tolerance, since the rounding of each h, of each bound and of each
    (b + a) - v is at most (2m + 4) 2^-53 Z: the margin covers the sum.

    The first-order bound.  U is loose by about |h'| times the cell's
    width, so a cell that U keeps, and that the steps below would prune,
    is pruned too when B + slack < L - tau - margin, if every curve of the
    row has a finite slope enclosure (Curve.slope_enclosure: P'_i for p_i
    and V' for v, and on the cell each curve's eval lies within E_i, E_v
    of a continuous F_i, F_v whose slope lies there).
    B = min(h_0 + G+ w, h_1 + G- w), with h_0 and h_1 the row's h at the
    cell's edges, summed from the curves' edge values, w their distance,
    G+ = max(0, sum_i max(delta_i P'_i) - min V') and
    G- = max(0, max V' - sum_i min(delta_i P'_i)); slack = 2E (1 + 2^-40)
    + (8m + 2^9) 2^-53 S w, with E = sum_i |delta_i| E_i + E_v and S the
    same sum of the largest |P'_i| and |V'| over the interval.  The
    weighted sum H of the F_i and F_v is continuous on the cell with
    slope in [-G-, G+], so at each point x of it H(x) <= H(e_0) + G+ w
    and H(x) <= H(e_1) + G- w (Piyavskii 1972; Moore 1966, Interval
    Analysis); the exact weighted sum of the evals is within E of H at x
    and at each edge, so at most B + 2E to the rounding of B.  That is at
    most (m + 4) 2^-53 Z for the h_k and the last add, which the margin
    covers as it covers U's, and (m + 7) 2^-53 S w for G and G w, which
    the slack covers.  So the argument above holds with B + slack for U.
    A row with a curve of no slope enclosure keeps U's cells.  The test
    runs only on the (row, cell) pairs it can change, _PAIRS at a time,
    by 1-D gathers per curve; each row's L - tau - margin and rate of
    slack per width are computed once.

    The steps.  With D_i the least and largest step of p_i's scan across
    a cell (EffortTables.steps, float differences of the scan's values),
    and D_v v's, each step of h's scan there rises by at least
    sum_i min(delta_i D_i) - max D_v and by at most
    sum_i max(delta_i D_i) - min D_v, up to the rounding of the two h
    values, of the differences and of the sums, (6m + 12) 2^-53 Z in all.
    A cell is pruned only when h's scan rises across each of its steps by
    more than the margin, or falls across each; and a rising cell only
    when the cell after it does not fall.  Then no point of a pruned cell,
    its edges included, is a scan peak of h (agent.scan_candidates' rule)
    but an edge it shares with a kept cell, which the dense stage sees:
    every scan peak, and so every open bracket, lies in the kept cells.

    A row takes the full build when a curve of it has no finite enclosure,
    steps or d1 table, when Z or its slope size is not below FINITE_BOUND,
    when nothing is pruned, and for every row when the interval's ulp is
    above REFINE_TOL / 16 (so bisection and golden section end strictly
    inside their brackets).  Below those sizes no value of h or of the
    slope on the grids is infinite, and no scalar eval or d1 call in a
    pruned cell raises (Curve.enclosure is NaN where one could).  A row
    whose h at the cell edges spans at most tau prunes nothing: each
    cell's U and B are at least its edges' least h >= L - tau.
    """
    count = len(deltas)
    kept = np.ones((count, CELLS), dtype=bool)
    floor, low, size, slope_size = np.full((4, count), np.nan)
    interval = scenario.interval
    if np.spacing(max(abs(interval.lo), abs(interval.hi))) > REFINE_TOL / 16:
        return kept, floor, low, size, slope_size
    curves = (*scenario.profile.components, scenario.agent.effort_cost)
    n = len(curves)
    use = np.concatenate([used, np.ones((count, 1), dtype=bool)], axis=1)
    signed = np.concatenate([deltas, -np.ones((count, 1))], axis=1)  # h's weight of each curve
    # rows i and n + i of each curve's _cell_data factors: one product of
    # h's weights split by sign (split) gives U, the least rise and minus
    # the largest rise across a step
    factors = np.zeros((3, 2 * n, CELLS))
    sizes, slope_sizes, slope_bounds = np.zeros((3, n))
    slopes = [None] * n  # per curve with a finite slope enclosure: its (low, high, error)
    at_edges = [None] * n  # per curve of finite tables: its values at the cell edges
    ok = np.ones(count, dtype=bool)
    sloped = np.ones(count, dtype=bool)  # the rows that take the first-order test
    with np.errstate(all="ignore"):
        for i, curve in enumerate(curves):
            if not use[:, i].any():
                continue
            data = _cell_data(tables, curve)
            if data is None:
                ok &= ~use[:, i]
                continue
            factors[:, (i, n + i)], sizes[i], slope_sizes[i], at_edges[i], slopes[i], slope_bounds[i] = data
            if slopes[i] is None:
                sloped &= ~use[:, i]
        weight = np.abs(signed)
        magnitude = (weight * sizes).sum(axis=1) * (1.0 + 2.0**-40)
        slope_size = (weight * slope_sizes).sum(axis=1) * (1.0 + 2.0**-40)
        size = (magnitude + 2.0 * sizes[-1]) * (1.0 + 2.0**-40)
        z = (base_size + magnitude) * (1.0 + 2.0**-40)
        tau = TAU_EXPECTATION * np.maximum(1.0, z)
        terms = use.sum(axis=1)
        margin = (8.0 * terms + 2.0**9) * 2.0**-53 * z
        ok &= (magnitude < FINITE_BOUND) & (slope_size < FINITE_BOUND) & np.isfinite(z)
        top = np.full(count, np.nan)
        live = np.flatnonzero(ok)
        positive, negative = np.maximum(signed[live], 0.0), np.minimum(signed[live], 0.0)
        split = np.concatenate([positive, negative], axis=1)
        live_deltas, live_used, live_tau, line = deltas[live], used[live], tau[live], margin[live, None]
        # per live row: its top, its low, and the least U or B of a kept cell
        extremes = np.zeros((3, len(live)))
        # the (row, cell) pairs the first-order test may prune, as live position * CELLS + cell
        pairs = [np.zeros(0, dtype=np.intp)]
        # the steps are tested eight blocks at a time: far fewer calls than
        # block by block, in arrays of ~2^15 cells, not a whole call's rows
        for first in range(0, len(live), 8 * _ROWS):
            rows = live[first:first + 8 * _ROWS]
            keep = np.zeros((len(rows), CELLS), dtype=bool)
            rising, falling = monotone = np.zeros((2, len(rows), CELLS), dtype=bool)
            for start in range(0, len(rows), _ROWS):
                inner, block = slice(start, start + _ROWS), slice(first + start, first + start + _ROWS)
                values = _weighted(live_deltas[block], live_used[block], at_edges.__getitem__, at_edges[-1])
                extremes[0, block], extremes[1, block] = values.max(axis=1), values.min(axis=1)
                extremes[2, block] = (extremes[0, block] - live_tau[block]) - line[block, 0]
                # U, the least rise and minus the largest rise, (3, rows, CELLS)
                product = np.matmul(split[block], factors)
                np.greater_equal(product[0], extremes[2, block, None], out=keep[inner])
                np.greater(product[1:], line[block], out=monotone[:, inner])
            # equal where neither holds: both cannot, since the least rise is at
            # most the largest up to rounding far below the margin
            stepped = rising == falling
            stepped[:, :-1] |= rising[:, :-1] & falling[:, 1:]
            kept[rows] = keep | stepped
            pairs.append(np.flatnonzero(keep & ~stepped & sloped[rows, None]) + first * CELLS)
        top[live], low[live], threshold = extremes
        # the first-order test, on the cells that only the bound U keeps,
        # _PAIRS (row, cell) pairs at a time
        flat = np.concatenate(pairs)
        widths, columns = np.diff(tables.grid(CELLS + 1)), signed.T.copy()
        spreads = (8.0 * terms + 2.0**9) * 2.0**-53 * (weight @ slope_bounds)
        for start in range(0, len(flat), _PAIRS):
            at, c = np.divmod(flat[start:start + _PAIRS], CELLS)
            r = live[at]
            width, above = widths[c], c + 1
            h0, h1, rise, fall, error = np.zeros((5, len(r)))
            for i, slope in enumerate(slopes):
                if slope is None:
                    continue
                w = columns[i][r]
                h0 += w * at_edges[i][c]
                h1 += w * at_edges[i][above]
                slope_low, slope_high, slope_error = slope
                # by w's sign, one is the term's largest rise, the other its least
                at_high, at_low = w * slope_high[c], w * slope_low[c]
                rise += np.maximum(at_high, at_low)
                fall += np.minimum(at_high, at_low)
                error += np.abs(w) * slope_error[c]
            first_order = np.minimum(h0 + np.maximum(rise, 0.0) * width, h1 + np.maximum(-fall, 0.0) * width)
            cut = first_order + (2.0 * error * (1.0 + 2.0**-40) + spreads[r] * width) < threshold[at]
            kept[r[cut], c[cut]] = False
        ok &= ~kept.all(axis=1) & kept.any(axis=1)
        kept[~ok] = True
        floor = top - 2.0**8 * 2.0**-53 * z
    return kept, floor, low, size, slope_size


def _build_rows(scenario: Scenario, tables: EffortTables, deltas: np.ndarray, base_size: float):
    """The tables of each utility-delta row of deltas, an (R, n-1) array, as columns.

    Returns (stats, owner, points).  stats is (3, R): each row's top, span
    and size, the size infinite (top and span 0) for a row with no screen,
    so that none of its contracts is decided.  points is (n+2, P): the
    rows x, a, v, p_1, ... of every row's points (x the effort), a row's
    columns together and in order; owner, sorted, gives the row of each
    column.  base_size is the largest |u(w_n)| of the family's contracts.
    _screen's docstring defines the tables.  Each row is built on the
    cells of the scan that _cells keeps (a full build keeps them all), in
    three stages:

    - dense: h on each kept cell's window of the scan (its CELLS-th of the
      scan and one point past each edge) and the slope on its part of the
      bracket grid, as (row-cells x window) arrays, groups of rows with
      about _BLOCK kept cells at a time, summed by _weighted, so each
      value has the scan's bits; top and low by reductions; as flat
      indices into the row's whole scan and grid, the bracket grid's zeros
      and + to - sign changes (h's local maxima, agent.bracket_roots' rule;
      the minima are skipped) and h's scan maxima (agent.scan_candidates' rule:
      no lower than either neighbour) that the cell owns (a point shared
      by two kept cells belongs to the later), whose runs (_runs) give the
      zero-run edges and the peak brackets, as a search of the whole row
      has them;
    - bisection: every + to - sign change and scan-peak bracket of every
      row in one lockstep loop (agent.bisect_brackets) on _Slopes, which
      keeps no memo of the slope, unlike agent.scan_candidates: a maximum
      that both brackets hold is bisected twice, at little cost, since the
      loop costs per iteration, not per bracket;
    - finish: for all the rows at once, each row's settle_points (_settle),
      of which a pruned row keeps the points in its kept cells, and a, v
      and the p_i there (_evals), a summed from -0.0 over the nonzero
      deltas in component order, as LinearPayoff.value sums it.  The
      columns of the rows each pass finishes are appended, and one stable
      sort by row joins the passes.

    A row has no screen when its tables raise or are not finite, when a
    scan peak brackets no sign change of the slope (an open bracket), or
    when a scalar call on it raises or gives an a or v that is not finite.
    A full build gives the tables that searching the row alone gives, bit
    for bit.  A pruned row has no screen where that search has none, and
    otherwise has its top, a span no larger, its enclosure size, and those
    of its points that lie in its kept cells.  _screen decides each of its
    contracts as the contract's own solve does.

    A pruned row is built again in full when it cannot carry the proof:
    when, at an edge between a kept and a pruned cell, the slope on the
    bracket grid is within 2^-40 of the row's slope size of 0 (a zero run
    or a root could reach across); when a candidate or hi lies within
    TAU_E above such an edge (a candidate of the pruned cell, which the
    build never sees, could drop it from the settled points; above TAU_E
    none can, nor can a pruned candidate drop a later kept one); and when
    its best kept point has h below the floor.
    """
    count = len(deltas)
    components = scenario.profile.components
    cost = scenario.agent.effort_cost
    used = deltas != 0.0
    stats = np.zeros((3, count))
    stats[2] = math.inf
    owners, columns = [np.zeros(0, dtype=np.intp)], [np.zeros((len(components) + 3, 0))]
    # each curve's _WINDOW rows, None where the tables raise
    windows = []
    failed = np.zeros(count, dtype=bool)
    with np.errstate(all="ignore"):
        for i, curve in enumerate((*components, cost)):
            try:
                on_scan, on_grid = tables.array(curve, SCAN_GRID_POINTS), tables.array(curve, MT_GRID_POINTS, 1)
            except Exception:
                if curve is cost:
                    return stats, owners[0], columns[0]
                windows.append(None)
                failed |= used[:, i]
            else:
                windows.append(np.concatenate([on_scan[:1], on_scan, on_scan[-1:], on_grid])[_WINDOW])
    used = used & ~failed[:, None]
    kept, floor, edge_low, size_bound, slope_size = _cells(scenario, tables, deltas, used, base_size)
    cost_size = tables.magnitude(cost)
    scan, grid = tables.grid(SCAN_GRID_POINTS), tables.grid(MT_GRID_POINTS)
    edges = tables.grid(CELLS + 1)
    interval = scenario.interval
    slopes = _Slopes(scenario, deltas)

    def dense(group, kept, counts, extremes, alive, zeros, changes, peaks) -> np.ndarray:
        """The dense stage of a group of rows, each with counts[row] kept
        cells: their extremes (top, low) and liveness, and their zeros, sign
        changes and scan peaks appended to the lists; returns the rows whose
        proof fails at a cell edge."""
        pair_row, c = np.nonzero(kept[group])
        r = group[pair_row]
        first_pair = np.cumsum(counts[group]) - counts[group]
        # whether the cell below and the cell above each pair's are kept (the
        # pairs run in row and cell order, so a key of row and cell rises by
        # 1 just between neighbours), and so whether a pruned cell precedes
        # or follows it
        key = r * (CELLS + 1) + c
        next_kept = key[1:] - key[:-1] == 1
        before = np.concatenate([[False], next_kept])
        after = np.concatenate([next_kept, [False]])
        out_of = ~before & (c > 0)
        into = ~after & (c < CELLS - 1)
        # one row per pair; a group row's pairs are consecutive segments of
        # the flattened array
        both = _weighted(deltas[r], used[r], lambda i: windows[i][c], windows[-1][c])
        h, gv = both[:, :_STEP + 3], both[:, _STEP + 3:]
        top = np.maximum.reduceat(h, first_pair).max(axis=1)
        low = np.minimum.reduceat(h, first_pair).min(axis=1)
        extremes[0, group], extremes[1, group] = top, low
        finite = np.logical_and.reduceat(np.isfinite(gv), first_pair).all(axis=1)
        alive[group] = np.isfinite(np.maximum(top, -low) + 2.0 * cost_size) & finite
        # h's scan maxima among the window's inner points, the cell's edges
        # included; the upper edge is the next kept cell's
        inner = h[:, 1:-1]
        peak = (inner >= h[:, :-2]) & (inner >= h[:, 2:])
        peak[:, -1] &= into
        peak[c == 0, 0] = False  # the interval's ends are not interior
        k, j = np.divmod(np.flatnonzero(peak), _STEP + 1)
        peaks.append(r[k] * SCAN_GRID_POINTS + c[k] * _STEP + j)
        grid_zero = gv == 0.0
        grid_zero[:, -1] &= ~after
        k, j = np.divmod(np.flatnonzero(grid_zero), _GRID_STEP + 1)
        zeros.append(r[k] * MT_GRID_POINTS + c[k] * _GRID_STEP + j)
        sign = np.sign(gv)  # + to -: the local maxima of h, as agent.bracket_roots
        k, j = np.divmod(np.flatnonzero((sign[:, :-1] > 0) & (sign[:, 1:] < 0)), _GRID_STEP)
        changes.append(r[k] * (MT_GRID_POINTS - 1) + c[k] * _GRID_STEP + j)
        tiny = 2.0**-40 * slope_size[r]
        edge = (out_of & ~(np.abs(gv[:, 0]) > tiny)) | (into & ~(np.abs(gv[:, -1]) > tiny))
        return group[alive[group] & np.logical_or.reduceat(edge, first_pair)]

    def build(rows: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Build the rows (sorted) on their kept cells; the pruned rows to build again in full."""
        extremes = np.full((2, count), np.nan)  # top, low
        alive = np.zeros(count, dtype=bool)
        retry, zeros, changes, peaks = [], [], [], []
        counts = kept.sum(axis=1)
        pairs = np.cumsum(counts[rows])
        groups = np.flatnonzero(np.diff(pairs // _BLOCK, prepend=0)) + 1
        with np.errstate(all="ignore"):
            for group in np.split(rows, groups[groups < len(rows)]):
                if len(group):
                    retry.append(dense(group, kept, counts, extremes, alive, zeros, changes, peaks))
            retry = np.concatenate([np.zeros(0, dtype=np.intp), *retry])
            alive[retry] = False

            empty = np.zeros(0, dtype=np.intp)
            zeros = np.sort(np.concatenate([empty, *zeros]))
            peaks = np.sort(np.concatenate([empty, *peaks]))
            # zero runs: each run's first and last point, a lone zero twice
            first, last = _runs(zeros, MT_GRID_POINTS)
            ends = np.stack([first, last], axis=1).reshape(-1)
            edge_rows, edge_values = ends // MT_GRID_POINTS, grid[ends % MT_GRID_POINTS]
            # sign changes, then scan-peak runs (the run of points j .. k of
            # a row brackets scan[j - 1] .. scan[k + 1])
            r, j = np.divmod(np.concatenate([empty, *changes]), MT_GRID_POINTS - 1)
            first, last = _runs(peaks, SCAN_GRID_POINTS)
            p, k = np.divmod(first, SCAN_GRID_POINTS)
            item_rows = np.concatenate([r, p])
            a = np.concatenate([grid[j], scan[k - 1]])
            b = np.concatenate([grid[j + 1], scan[last % SCAN_GRID_POINTS + 1]])
            snap = np.concatenate([np.zeros(len(r), dtype=bool), np.ones(len(p), dtype=bool)])
            live = alive[item_rows]
            order = np.flatnonzero(live)[np.argsort(item_rows[live], kind="stable")]
            item_rows, a, b, snap = item_rows[order], a[order], b[order], snap[order]
            roots = np.zeros(0)
            if len(item_rows):
                roots = bisect_brackets(slopes.bind(item_rows), a, b, snap)
        alive[item_rows[np.isnan(roots)]] = False  # open scan-peak brackets
        alive &= ~slopes.failed

        # a candidate, or hi, within TAU_E above the lower edge of a run that
        # a pruned cell precedes could have been dropped by a candidate of that
        # cell, which the build never saw: such rows are built again in full
        rows = np.concatenate([edge_rows, item_rows, np.arange(count)])
        x = np.concatenate([edge_values, roots, np.full(count, interval.hi)])
        cell = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, CELLS - 1)
        near = alive[rows] & (cell > 0) & kept[rows, cell] & ~kept[rows, cell - 1]
        near &= x - edges[cell] <= TAU_E
        alive[rows[near]] = False

        # finish: every live row's settled points in its kept cells (their
        # edges included; the points lie in [lo, hi], the outer edges), and
        # a, v and the p_i there
        settled = np.flatnonzero(alive)
        on_edge, on_root = alive[edge_rows], alive[item_rows]
        owner, x = _settle(
            settled, np.concatenate([edge_rows[on_edge], item_rows[on_root]]),
            np.concatenate([edge_values[on_edge], roots[on_root]]), interval,
        )
        below = np.maximum(np.searchsorted(edges, x, side="left") - 1, 0)
        above = np.minimum(np.searchsorted(edges, x, side="right") - 1, CELLS - 1)
        inside = kept[owner, below] | kept[owner, above]
        owner, x = owner[inside], x[inside]
        values, raised = zip(*(_evals(curve, x) for curve in (*components, cost)))
        *p, v = values
        with np.errstate(all="ignore"):
            a = np.full(len(x), -0.0)  # summed as LinearPayoff.value sums it
            for i, pi in enumerate(p):
                d = deltas[owner, i]
                a = np.where(d != 0.0, a + d * pi, a)
            unfit = np.logical_or.reduce(raised) | ~np.isfinite(a) | ~np.isfinite(v)
            table = np.array([x, a, v, *p])
            # per settled row: the largest h and |a| + |v| at its points (NaN
            # for a row with none)
            starts, stops = np.searchsorted(owner, settled), np.searchsorted(owner, settled, side="right")
            shown = stops > starts
            h_max, av_max = np.full((2, len(settled)), np.nan)
            if len(x):
                at = starts[shown]
                h_max[shown] = np.maximum.reduceat(a - v, at)
                av_max[shown] = np.maximum.reduceat(np.abs(a), at) + np.maximum.reduceat(np.abs(v), at)
            # as Python's min and max, which keep the first of equal values
            top, low = extremes[:, settled]
            span = top - np.where(edge_low[settled] < low, edge_low[settled], low)
            size = np.where(-low > top, -low, top) + 2.0 * cost_size
            size = np.where(av_max > size, av_max, size)
        full = counts[settled] == CELLS
        size = np.where(full, size, size_bound[settled])
        # a row with a point that raises or is not finite has no screen; a
        # pruned row whose best kept point lies below its floor is built again
        broken = np.zeros(count, dtype=bool)
        broken[owner[unfit]] = True
        whole = ~broken[settled]
        done = whole & (full | (h_max >= floor[settled]))
        stats[:, settled[done]] = top[done], span[done], size[done]
        finished = np.zeros(count, dtype=bool)
        finished[settled[done]] = True
        mine = finished[owner]
        owners.append(owner[mine])
        columns.append(table[:, mine])
        again = np.zeros(count, dtype=bool)
        again[retry] = again[rows[near]] = again[settled[whole & ~done]] = True
        return np.flatnonzero(again)

    retry = build(np.flatnonzero(~failed), kept)
    if len(retry):
        build(retry, np.ones_like(kept))
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    return stats, owner[order], np.concatenate(columns, axis=1)[:, order]


def _screen(scenario: Scenario, tables: EffortTables, arrays: _FamilyArrays, index, policy: str):
    """Settle the contracts of one block from their rows' tables, where that is exact.

    Returns (screened, accepted, value, respond): per contract of index,
    the block's axis indices, whether it is settled, and its acceptance
    and value (the principal's payoff at the policy's effort) as its own
    solve gives them wherever screened is set; respond(k) is _respond's
    result for a screened contract k of the block (None when the screen
    settles none).  The block's distinct utility-delta rows
    (LinearPayoff.deltas) are built in one _build_rows call, and each
    contract gathers its row's stats and points by row number.

    The row.  A contract with base b = u(w_n) in a delta row has the
    payoff b + h, with h = a - v base-free (a = sum_i delta_i p_i, v the
    cost).  Its solve (agent.hybrid_maximize) reads the scan of h for its
    flat test's spread and its scan peaks; b enters only the test's
    tolerance, the constant result, the finiteness of (b + a) - v on the
    scan and golden section.  The row (_build_rows) computes h with the
    solve's operations, on the cells of the scan that can hold a tied
    point of some contract of the family (all of them for a full build),
    and keeps:

    - ``top`` and ``span``: max h, which a kept cell always holds, and
      max h - min h, or a lower bound of it for a pruned row (its kept
      cells' and cell edges' least h), so span <= TAU_EXPECTATION *
      max(1, |b + top|) holds wherever the solve's own flat test fails;
    - ``size``: max |h| + 2 max |v|, or for a pruned row its bound
      sum_i |delta_i| max |p_i| + 3 max |v| from the curves' enclosures
      on the whole interval; either bounds every |a_j| + |v_j| on the scan
      to rounding and is at least max |a| + max |v| at the points below,
      so |b| + size < FINITE_BOUND = 2^1000 keeps (b + a) - v finite;
    - ``points``: the settled candidates of a solve that is not flat (the
      bracket-grid roots and the roots h's scan peaks snap onto) that lie
      in the kept cells, one column per effort of _build_rows' points,
      whose rows are x, a, v, p_1, ..., p_{n-1}: the effort, then the
      bits of the scalar calls settle and the principal make there.

    A row has no screen (size infinite) when its tables raise or are not
    finite, or a scan peak of h brackets no sign change of the slope (an
    open bracket, for golden section); every scan peak lies in a kept cell.
    Otherwise a contract whose flat test fails and with |b| + size <
    2^1000 is decided: its solve neither raises nor takes the flat
    shortcut, and settles the row's points and those of the pruned cells.
    The pruning proof (_cells) puts every point of a pruned cell further
    below the contract's best value than its tie tolerance, and keeps the
    settle order of the kept points, so the best value, the tie set and
    its order are those of the row's points.

    Exact values.  A decided contract's settle values are
    F_k = (b + a_k) - v_k at the row's points, a_k (summed from -0.0) and
    v_k from the values of the same scalar calls in the same order as
    LinearPayoff.value, so the same IEEE operations; its best value, tie
    set and acceptance follow with the operations settle uses.
    The principal's value at each tied point is B(x_n - w_n) plus the
    nonzero deltas times p_i there, added from -0.0 in component order as
    LinearPayoff.value adds them.  Left unscreened: rows without a screen,
    contracts that take the flat shortcut, and accepted contracts whose
    principal levels or deltas are not finite or whose tied values are NaN.

    The response.  So a screened contract's BestResponse is its row's:
    respond builds it (agent.best_response_from) from the pairs (x_k, F_k)
    of its points that agent.ties keeps, the best F_k and its acceptance,
    with no constant result; the policy's effort and value then come from
    the principal's payoff there, as _respond takes them, so their types
    are the scalar calls' too.
    """
    count = len(index)
    screened = np.zeros(count, dtype=bool)
    accepted = np.zeros(count, dtype=bool)
    value = np.full(count, np.nan)
    levels = arrays.matrix(arrays.u, index)
    deltas = levels[:, :-1] - levels[:, -1:]
    ok = np.nonzero(np.isfinite(levels).all(axis=1) & np.isfinite(deltas).all(axis=1))[0]
    if len(ok) == 0:
        return screened, accepted, value, None
    if deltas.shape[1] == 1:
        distinct, which = np.unique(deltas[ok, 0], return_inverse=True)
        distinct = distinct[:, None]
    else:
        distinct, which = np.unique(deltas[ok], axis=0, return_inverse=True)
    which = which.reshape(-1)

    stats, column_row, points = _build_rows(scenario, tables, distinct, arrays.base_size())
    # row r's points are the columns offsets[r] .. offsets[r + 1] - 1
    offsets = np.searchsorted(column_row, np.arange(len(distinct) + 1))
    x_all, a_all, v_all, p_all = points[0], points[1], points[2], points[3:]

    top, span, row_size = stats[:, which]
    base = levels[ok, -1]
    with np.errstate(all="ignore"):
        not_flat = span > TAU_EXPECTATION * np.maximum(1.0, np.abs(base + top))
        decided = (np.abs(base) + row_size < FINITE_BOUND) & not_flat
    if not decided.any():
        return screened, accepted, value, None
    rows = ok[decided]
    row_of = which[decided]
    base = base[decided]

    # one cell per contract and candidate point; first[c] is contract c's first
    lengths = np.diff(offsets)[row_of]
    first = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(len(rows)), lengths)
    pos = np.arange(len(owner))
    cell = pos - first[owner] + offsets[row_of][owner]
    with np.errstate(all="ignore"):
        f = (base[owner] + a_all[cell]) - v_all[cell]
        best = np.maximum.reduceat(f, first)
        tie = best[owner] - f <= TAU_EXPECTATION * np.maximum(1.0, np.abs(best))[owner]
        yes = best >= scenario.agent.reservation_utility

        principal = arrays.matrix(arrays.b, index[rows])
        pdeltas = principal[:, :-1] - principal[:, -1:]
        principal_ok = np.isfinite(principal).all(axis=1) & np.isfinite(pdeltas).all(axis=1)
        acc = np.full(len(owner), -0.0)
        for i, pi in enumerate(p_all):
            d = pdeltas[owner, i]
            acc = np.where(d != 0.0, acc + d * pi[cell], acc)
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

    def respond(k: int):
        """_respond's result for the block's screened contract k, its
        response built from its row's points and values."""
        j = int(np.searchsorted(rows, k))
        own = slice(first[j], first[j] + lengths[j])
        pairs, best = ties(list(zip(x_all[cell[own]].tolist(), f[own].tolist())))
        response = best_response_from(
            pairs, best, False, scenario.interval, best >= scenario.agent.reservation_utility
        )
        return _respond(scenario, arrays.contract(index[k]), policy, response)

    return screened, accepted, value, respond


def _key(value: np.ndarray, wages: np.ndarray, k) -> tuple:
    """The key (-value, wages) of a block's contract k, of Python floats."""
    return -float(value[k]), tuple(wages[k].tolist())


def _winner(wages: np.ndarray, accepted, value, incumbent):
    """The block's first accepted contract of least key (_key), as (key,
    position in the block), if its key is below the key of the incumbent,
    a tuple whose first item is its key; else the incumbent.

    Keys are compared with <, as a per-contract loop compares them.  A NaN
    value never compares below another key, nor another below it, so with
    one the keys are compared in order, as that loop does.
    """
    found = np.nonzero(accepted)[0]
    if len(found) == 0:
        return incumbent
    if np.isnan(value[found]).any():
        for k in found:
            key = _key(value, wages, k)
            if incumbent is None or key < incumbent[0]:
                incumbent = (key, k)
        return incumbent
    top = value[found].max()
    found = found[value[found] == top]
    k = found[np.lexsort(wages[found].T[::-1])[0]]
    key = _key(value, wages, k)
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
    arrays in blocks of SCREEN_CHUNK contracts, and each block is grouped
    by utility-delta row, its rows built together.  Most contracts are
    settled from their row's tables (_screen, where the argument that
    makes this exact is set out); the rest are solved one by one, in
    order, by agent_best_response, so an error is raised at the same
    contract as by a loop of its calls.  The screen raises nothing, so the
    first contract whose wage count is not the outcome count ends the walk
    with its own solve's DimensionError, after the contracts before it.  A
    screened winner's BestResponse, effort and value are built from its
    row (_screen's respond), which gives the result of that loop, since a
    screened contract's own solve is its row's result.  The one-by-one
    loop keeps only the solve of its least key, which the block's winner
    reuses when it is that contract; any other winner of that loop (one
    whose value is NaN lets a later key win) is solved once more.
    """
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(
            f"unknown tie-break policy {tie_break!r}; "
            f"choose one of {TIE_BREAK_POLICIES}"
        )
    family.require_within_cap()
    tables = effort_tables(scenario)
    arrays = _FamilyArrays(scenario, family)
    # (key, contract, its _respond result or None) of the best accepted
    # contract so far; the result is kept where the one-by-one loop made it
    incumbent = None
    for start in range(0, arrays.size, SCREEN_CHUNK):
        index = arrays.chunk(start, min(start + SCREEN_CHUNK, arrays.size))
        screened, accepted, value, respond = _screen(scenario, tables, arrays, index, tie_break)
        wages = arrays.matrix(arrays.wages, index)
        solved = None  # (key, k, _respond result) of the loop's least key
        for k in np.nonzero(~screened)[0].tolist():
            result = _respond(scenario, arrays.contract(index[k]), tie_break)
            response, _, v = result
            accepted[k] = response.accepted
            value[k] = np.nan if v is None else v
            if response.accepted:
                key = _key(value, wages, k)
                if solved is None or key < solved[0]:
                    solved = key, k, result
        found = _winner(wages, accepted, value, incumbent)
        if found is not incumbent:
            key, k = found[0], int(found[1])
            if screened[k]:
                kept = respond(k)
            else:
                kept = solved[2] if solved is not None and solved[1] == k else None
            incumbent = key, arrays.contract(index[k]), kept
        del respond  # and with it the block's arrays, before the next block's
    if arrays.size < family.size():
        scenario.check_contract(next(itertools.islice(family, arrays.size, None)))
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
    _, contract, solved = incumbent
    response, effort, value = solved or _respond(scenario, contract, tie_break)
    return GameSolution(
        all_rejected=False,
        contract=contract,
        effort=effort,
        principal_payoff=value,
        agent_payoff=response.optimal_expectation,
        tie_break=tie_break,
        best_response=response,
    )
