"""Agent-side solver: payment expectation, effort best response, risk posture.

Under a fixed contract the agent faces a one-dimensional problem: pick the
effort in [lo, hi] that maximizes expected utility

    E(e) = sum_i p_i(e) * u(w_i) - v(e).

The first derivative of E is the agent's motivation, the second the
persistence; the sign of persistence over the interval determines whether
this contract makes the agent risk-averse, risk-seeking, or risk-neutral.
The maximizer search is a belt-and-braces hybrid: derivative root
bracketing plus a dense value scan, so tangential critical points and
boundary maxima are caught even when bisection alone would miss them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .model import Contract, EffortInterval, Scenario, require_finite
from .tables import (
    MT_GRID_POINTS, SCAN_GRID_POINTS, VALIDATION_GRID_POINTS, EffortTables, effort_tables,
)

__all__ = [
    "FINITE_BOUND",
    "TAU_E",
    "TAU_EXPECTATION",
    "TAU_R",
    "REFINE_TOL",
    "MaximizerKind",
    "Maximizer",
    "BestResponse",
    "RiskClass",
    "RiskClassification",
    "agent_expectation",
    "motivation",
    "persistence",
    "transience",
    "agent_payoff_functions",
    "agent_best_response",
    "classify_risk",
    "classify_persistence_samples",
    "hybrid_maximize",
]

TAU_E = 1e-9            # effort dedup / boundary-coincidence tolerance
TAU_EXPECTATION = 1e-9  # relative tie tolerance on expectation values
TAU_R = 1e-9            # absolute persistence sign tolerance

REFINE_TOL = 1e-12       # bisection / golden-section interval target

# |u(w_n)| + max|h| + 2 max|v| below this keeps every value (u(w_n) + a) - v
# of a scan finite: |a| <= |h| + |v| to rounding, and 2^1001 < DBL_MAX
FINITE_BOUND = 2.0**1000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class MaximizerKind(Enum):
    INTERIOR_CRITICAL = "interior_critical"
    BOUNDARY_MIN = "boundary_min"
    BOUNDARY_MAX = "boundary_max"


class RiskClass(Enum):
    AVERSE = "averse"
    SEEKING = "seeking"
    NEUTRAL = "neutral"
    MIXED = "mixed"


@dataclass(frozen=True)
class Maximizer:
    effort: float
    kind: MaximizerKind
    expectation: float


@dataclass(frozen=True)
class BestResponse:
    """Agent's solution to the effort problem under one contract.

    ``maximizers`` lists every global maximizer found (ascending effort,
    expectations tied within the relative tolerance).  When the expectation
    is constant over the whole interval the set is represented by the two
    boundary points and ``constant_expectation`` is set.
    """

    maximizers: tuple[Maximizer, ...]
    optimal_expectation: float
    accepted: bool
    constant_expectation: bool = False

    def efforts(self) -> tuple[float, ...]:
        return tuple(m.effort for m in self.maximizers)


@dataclass(frozen=True)
class RiskClassification:
    classification: RiskClass
    persistence_min: float
    persistence_max: float


class LinearPayoff:
    """base + sum_i delta_i p_i(e) - cost(e), scalar or vectorized; cost optional.

    Both parties' expectations take this form through the complement
    identity: with levels l_i (u(w_i) for the agent, B(x_i - w_i) for the
    principal) and delta_i = l_i - l_n, sum_i p_i(e) l_i = l_n +
    sum_{i<n} p_i(e) delta_i.  So only the n-1 component curves are
    evaluated, the probabilities never need renormalizing, and components
    with a zero delta are skipped.  A level or delta that is not finite
    raises DomainError.  ``deltas`` is the whole delta row, zeros included;
    the slope and curvature depend on it alone, not on the base.

    value and based_scan sum from -0.0, IEEE 754's exact additive
    identity, so where every term is -0.0 or there is none they give the
    IEEE value of base - cost: with base -0.0 and no terms, -cost bit for
    bit.  slope, curvature and on_grid, like contractgame.principal's
    _weighted and _Slopes, sum from 0.0: their zeros reach reports.
    """

    __slots__ = ("base", "deltas", "terms", "cost")

    def __init__(self, scenario: Scenario, levels, cost=None):
        self.base = levels[-1]
        self.deltas = tuple(level - levels[-1] for level in levels[:-1])
        self.terms = tuple(
            (delta, comp)
            for delta, comp in zip(self.deltas, scenario.profile.components)
            if delta != 0.0
        )
        if not all(math.isfinite(x) for x in (self.base, *(d for d, _ in self.terms))):
            raise DomainError(f"payoff levels {levels} are not finite or too far apart")
        self.cost = cost

    @classmethod
    def agent(cls, scenario: Scenario, contract: Contract) -> LinearPayoff:
        """E(e) = sum_i p_i(e) u(w_i) - v(e)."""
        scenario.check_contract(contract)
        u = scenario.agent.utility
        levels = [u.eval(w) for w in contract.wages]
        return cls(scenario, levels, scenario.agent.effort_cost)

    @classmethod
    def principal(cls, scenario: Scenario, contract: Contract) -> LinearPayoff:
        """sum_i p_i(e) B(x_i - w_i)."""
        scenario.check_contract(contract)
        B = scenario.principal.utility
        levels = [B.eval(x - w) for x, w in zip(scenario.outcomes, contract.wages)]
        return cls(scenario, levels)

    def value(self, e):
        acc = -0.0
        for delta, comp in self.terms:
            acc = acc + delta * comp.eval(e)
        acc = self.base + acc
        return acc if self.cost is None else acc - self.cost.eval(e)

    def slope(self, e):
        acc = 0.0
        for delta, comp in self.terms:
            acc = acc + delta * comp.d1(e)
        return acc if self.cost is None else acc - self.cost.d1(e)

    def curvature(self, e):
        acc = 0.0
        for delta, comp in self.terms:
            acc = acc + delta * comp.d2(e)
        return acc if self.cost is None else acc - self.cost.d2(e)

    def on_grid(self, tables: EffortTables, points: int, order: int):
        """The base-free h = value - base (order 0), slope (1) or curvature
        (2) on the tables' grid of points.

        The curves' arrays come from tables, and the operations are those
        of slope and curvature in their order, so the result is
        bit-identical to calling them on the grid.
        """
        acc = 0.0
        for delta, comp in self.terms:
            acc = acc + delta * tables.array(comp, points, order)
        return acc if self.cost is None else acc - tables.array(self.cost, points, order)

    def based_scan(self, tables: EffortTables):
        """(base + a) - cost on the scan grid, a = sum_i delta_i p_i: value's bits."""
        a = -0.0
        for delta, comp in self.terms:
            a = a + delta * tables.array(comp, SCAN_GRID_POINTS)
        return (self.base + a) - tables.array(self.cost, SCAN_GRID_POINTS)


def agent_expectation(scenario: Scenario, contract: Contract, e: float) -> float:
    """Expected agent utility sum_i p_i(e) u(w_i) - v(e)."""
    scenario.interval.require(e)
    return LinearPayoff.agent(scenario, contract).value(e)


def motivation(scenario: Scenario, contract: Contract, e: float) -> float:
    """First derivative of the payment expectation with respect to effort."""
    scenario.interval.require(e)
    return LinearPayoff.agent(scenario, contract).slope(e)


def persistence(scenario: Scenario, contract: Contract, e: float) -> float:
    """Second derivative of the payment expectation with respect to effort."""
    scenario.interval.require(e)
    return LinearPayoff.agent(scenario, contract).curvature(e)


def transience(scenario: Scenario, contract: Contract, e: float) -> float:
    return -persistence(scenario, contract, e)


def agent_payoff_functions(scenario: Scenario, contract: Contract):
    """(E, Mt, Prst) closures accepting scalars or numpy arrays.

    Shares one precomputed payoff object, so this is the fast path for
    sweeps and dense grids.
    """
    payoff = LinearPayoff.agent(scenario, contract)
    interval = scenario.interval

    def expectation(e):
        interval.require(e)
        return payoff.value(e)

    def slope(e):
        interval.require(e)
        return payoff.slope(e)

    def curvature(e):
        interval.require(e)
        return payoff.curvature(e)

    return expectation, slope, curvature


def _bisect_root(g, a: float, b: float, ga: float, gb: float) -> float:
    """Root of g in [a, b] given a sign change and ga = g(a), gb = g(b);
    interval shrunk to REFINE_TOL."""
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    while b - a > REFINE_TOL:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (ga < 0.0) == (gm < 0.0):
            a, ga = mid, gm
        else:
            b = mid
    return 0.5 * (a + b)


def _golden_max(f, a: float, b: float) -> float:
    """Golden-section maximizer of f on [a, b]; bracket shrunk to REFINE_TOL."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(256):
        if b - a <= REFINE_TOL or not a < c < d < b:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _merge_runs(indices):
    """Group consecutive integer indices into (first, last) runs."""
    runs = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


# The maximizer pipeline.  hybrid_maximize chains the stages below; the
# two-outcome analyzer runs its own candidate set through the same ones, and
# solve_game's row screen (contractgame.principal) runs them for many
# utility-delta rows at once: the flat test and scan peaks on each row's
# base-free scan h, and the bisections of bracket_roots and snap_root in
# one loop (bisect_brackets).  The base b = u(w_n) of the payoff b + h
# cannot move a maximizer, so only the flat test's tolerance, the constant
# result, the finiteness check and golden section (whose comparisons see
# the rounding of b + h) read it.

def flat_scan(payoff: LinearPayoff, tables: EffortTables):
    """The flat stage: (h, constant) from the LinearPayoff's base-free scan
    h (``on_grid`` of order 0) and, when read, its based scan fv.

    The test reads h alone, top - low <= TAU_EXPECTATION * max(1, |base +
    top|) with top and low its max and min.  When it holds, constant is
    the constant result (pairs, best, True) from fv, whose two boundary
    points represent the interval; else None.  A scan value that is not
    finite raises DomainError, fv's first.  fv is built only when
    something reads it: when the test fails and |base| + max(top, -low) +
    2 max|cost| < FINITE_BOUND, fv is finite and unread, and h is all the
    stage gives.
    """
    h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
    top, low = float(h.max()), float(h.min())
    flat = top - low <= TAU_EXPECTATION * max(1.0, abs(payoff.base + top))
    size = abs(payoff.base) + max(top, -low)
    if not flat and size + 2.0 * tables.magnitude(payoff.cost) < FINITE_BOUND:
        return h, None
    fv = payoff.based_scan(tables)
    fmax, fmin = float(fv.max()), float(fv.min())
    if not all(map(math.isfinite, (fmax, fmin, top, low))):
        for values in (fv, h):
            require_finite(values, tables.grid(SCAN_GRID_POINTS), "objective")
    if flat:
        interval = tables.interval
        pairs = ((interval.lo, float(fv[0])), (interval.hi, float(fv[-1])))
        return h, (pairs, fmax, True)
    return h, None


def bracket_roots(g, grid: np.ndarray, gv: np.ndarray, *, minima: bool = False):
    """Roots of g bracketed by its values gv on a uniform grid, bisected to REFINE_TOL.

    g is the slope of the function searched, and only its sign changes
    from + to -, the function's local maxima, are bisected; with minima
    set, those from - to + too.  A run of exact zeros on the grid is a
    flat stretch; its edges are the informative representatives (a lone
    zero is its own edge).  A grid value that is not finite raises
    DomainError.
    """
    gv = require_finite(gv, grid, "derivative")
    roots = []
    for first, last in _merge_runs(np.nonzero(gv == 0.0)[0]):
        roots.append(float(grid[first]))
        roots.append(float(grid[last]))
    sign = np.sign(gv)  # not the values: their products may underflow to 0 or overflow
    change = (sign[:-1] > 0.0) & (sign[1:] < 0.0)
    if minima:
        change |= (sign[:-1] < 0.0) & (sign[1:] > 0.0)
    for i in np.nonzero(change)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        roots.append(_bisect_root(g, a, b, g(a), g(b)))
    return roots


def snap_root(g, a: float, b: float) -> float | None:
    """The root of g a scan-peak bracket [a, b] snaps onto, or None without a sign change."""
    da = g(a)
    db = g(b)
    if da == 0.0 or db == 0.0 or da < 0.0 < db or db < 0.0 < da:
        return _bisect_root(g, a, b, da, db)
    return None


def bisect_brackets(g, a: np.ndarray, b: np.ndarray, snap: np.ndarray) -> np.ndarray:
    """The roots of many brackets [a_k, b_k] at once, bit for bit as one by one.

    A bracket with snap set is a scan-peak bracket, whose root is
    snap_root's (NaN where that is None: no sign change, the bracket is
    open); the others are bracket_roots' sign changes (the + to - ones,
    maxima only, in contractgame.principal's row build), bisected whatever
    the signs at their ends.  g(k, x) gives the function of brackets k at
    the points x, arrays both, with the sign (or zero) of the scalar call
    g(x_j) that the one-by-one search makes.  g keeps no memo, so a maximum
    that both kinds of bracket hold is bisected twice.  The brackets are
    bisected in lockstep, with _bisect_root's updates, exits and stop.
    Each iteration passes g the same k object (the live brackets) until
    one ends, so g may keep what it gathers for k until k changes.
    """
    count = len(a)
    every = np.arange(count)
    ends = g(np.concatenate([every, every]), np.concatenate([a, b]))
    ga, gb = ends[:count], ends[count:]
    root = np.full(count, np.nan)
    at_a = ga == 0.0
    at_b = ~at_a & (gb == 0.0)
    root[at_a] = a[at_a]
    root[at_b] = b[at_b]
    change = ((ga < 0.0) & (0.0 < gb)) | ((gb < 0.0) & (0.0 < ga))
    live = np.flatnonzero(~at_a & ~at_b & (change | ~snap))
    # _bisect_root reads ga only by its sign, which an update of a keeps
    a, b, negative = a[live], b[live], ga[live] < 0.0
    # with S the ends' largest ulp, 0.5 * (a + b) and b - a lie within S of
    # the exact midpoint and width; so when 4 S <= REFINE_TOL, a bracket
    # wider than REFINE_TOL has its midpoint strictly inside
    inside = 4.0 * np.spacing(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))) <= REFINE_TOL
    while len(live):
        mid = 0.5 * (a + b)
        go = b - a > REFINE_TOL
        if not inside:
            go &= (a < mid) & (mid < b)
        if np.count_nonzero(go) < len(go):
            root[live[~go]] = mid[~go]  # the loop ends: 0.5 * (a + b)
            live, a, b, negative, mid = live[go], a[go], b[go], negative[go], mid[go]
            if not len(live):
                break
        gm = g(live, mid)
        left = (gm < 0.0) == negative
        np.putmask(a, left, mid)
        np.putmask(b, ~left, mid)
        if np.count_nonzero(gm) < len(gm):
            zero = gm == 0.0
            root[live[zero]] = mid[zero]
            live, a, b, negative = live[~zero], a[~zero], b[~zero], negative[~zero]
    return root


def _memo(g):
    """g keeping its values for the one search that made it.

    The bisections of a maximum's bracket-grid bracket and of its scan-peak
    bracket converge on the same midpoints, so a repeated point reads the
    first call's value.  Zero is not kept: 0.0 and -0.0 are one dict key,
    and g may tell them apart.
    """
    values = {}

    def memo(x):
        if x == 0.0:
            return g(x)
        y = values.get(x)
        if y is None:
            y = values[x] = g(x)
        return y

    return memo


def scan_candidates(payoff: LinearPayoff, tables: EffortTables, h: np.ndarray):
    """(roots, open_brackets): the candidates the slope pins down, and the rest.

    roots are the slope's + to - sign-change roots (the payoff's local
    maxima) bracketed on the tables' bracket grid, then the roots that the
    local maxima of h on the scan (a run of equal maxima as one) snap onto.
    open_brackets are the (a, b) brackets of the scan maxima with no sign
    change of the slope, left for golden-section search.  Every bisection
    reads one memo of the scalar slope (_memo), which lives for this call.
    """
    scan = tables.grid(SCAN_GRID_POINTS)
    grid = tables.grid(MT_GRID_POINTS)
    gv = payoff.on_grid(tables, MT_GRID_POINTS, 1)
    slope = _memo(payoff.slope)
    roots = bracket_roots(slope, grid, gv)
    open_brackets = []
    interior = np.nonzero((h[1:-1] >= h[:-2]) & (h[1:-1] >= h[2:]))[0] + 1
    for first, last in _merge_runs(interior.tolist()):
        a = float(scan[first - 1])
        b = float(scan[last + 1])
        root = snap_root(slope, a, b)
        if root is None:
            open_brackets.append((a, b))
        else:
            roots.append(root)
    return roots, open_brackets


def dedup_sorted(points) -> list[float]:
    """Sorted points, dropping each one within TAU_E of the last kept."""
    kept: list[float] = []
    for c in sorted(points):
        if kept and c - kept[-1] <= TAU_E:
            continue
        kept.append(c)
    return kept


def settle_points(candidates, interval: EffortInterval) -> list[float]:
    """The boundaries and the clamped candidates, sorted and deduped.

    Both boundaries are always kept, even on an interval no wider than
    TAU_E, where the dedup would merge them.
    """
    lo, hi = interval.lo, interval.hi
    points = dedup_sorted([lo, hi, *(min(max(c, lo), hi) for c in candidates)])
    if len(points) == 1:
        points.append(hi)
    return points


def settle(f, candidates, interval: EffortInterval):
    """Add the boundaries, clamp, sort and dedup candidates, evaluate f, keep the ties.

    Returns (evaluated, pairs, best): every kept (point, value) pair, the
    ones whose value ties the best within the relative tie tolerance, and
    the best value.
    """
    evaluated = [(c, float(f(c))) for c in settle_points(candidates, interval)]
    return evaluated, *ties(evaluated)


def ties(evaluated):
    """(pairs, best): the (point, value) pairs of evaluated whose value ties
    the best within the relative tie tolerance, and the best value."""
    best = max(fc for _, fc in evaluated)
    scale = max(1.0, abs(best))
    pairs = tuple(
        (c, fc) for c, fc in evaluated if best - fc <= TAU_EXPECTATION * scale
    )
    return pairs, best


def hybrid_maximize(payoff: LinearPayoff, tables: EffortTables):
    """Global maximizers of a LinearPayoff f = base + h on the tables' effort interval.

    f is the payoff's ``value`` and df its ``slope``.  Returns
    (maximizers, best_value, constant) where maximizers is a tuple of
    (point, value) pairs sorted by point.  Candidates come from three
    sources: the interval boundaries, the + to - sign-change roots of df
    (local maxima of f; the minima are skipped) bracketed on a uniform grid
    and bisected to ``REFINE_TOL``, and local maxima of the scan of h
    (scan_candidates).  Scan brackets that contain a sign change of df are
    snapped onto the root by bisection (golden-section alone only locates a
    smooth peak to about sqrt(eps)); the rest are polished by
    golden-section on f.  Both bisections share one memo of df for the
    solve.  A flat function (flat_scan) is reported as constant via its
    two boundary points.
    """
    h, flat = flat_scan(payoff, tables)
    if flat is not None:
        return flat

    f = payoff.value
    roots, open_brackets = scan_candidates(payoff, tables, h)
    candidates = roots + [_golden_max(f, a, b) for a, b in open_brackets]
    _, pairs, best = settle(f, candidates, tables.interval)
    return pairs, best, False


def _kind_at(e: float, interval: EffortInterval) -> MaximizerKind:
    if e < interval.hi and e - interval.lo <= TAU_E:
        return MaximizerKind.BOUNDARY_MIN
    if interval.hi - e <= TAU_E:
        return MaximizerKind.BOUNDARY_MAX
    return MaximizerKind.INTERIOR_CRITICAL


def best_response_from(
    pairs, best: float, constant: bool, interval: EffortInterval, accepted: bool
) -> BestResponse:
    """BestResponse from a maximizer result (pairs, best, constant).

    Each maximizer is labelled by its distance to the boundaries: a
    constant result's two pairs, lo and hi, come out BOUNDARY_MIN and
    BOUNDARY_MAX on any interval, since lo < hi.
    """
    maximizers = tuple(Maximizer(e, _kind_at(e, interval), fe) for e, fe in pairs)
    return BestResponse(maximizers, best, accepted, constant)


def agent_best_response(scenario: Scenario, contract: Contract) -> BestResponse:
    """Solve max E(e) over the effort interval.

    All global maximizers are reported; the agent accepts the contract when
    the optimum is at least the reservation utility (rejection keeps the
    maximizer list, only the flag flips).
    """
    payoff = LinearPayoff.agent(scenario, contract)
    pairs, best, constant = hybrid_maximize(payoff, effort_tables(scenario))
    accepted = best >= scenario.agent.reservation_utility
    return best_response_from(pairs, best, constant, scenario.interval, accepted)


def classify_persistence_samples(samples: np.ndarray) -> RiskClassification:
    """Apply the sign rule to sampled persistence values."""
    pmin = float(np.min(samples))
    pmax = float(np.max(samples))
    if pmax < -TAU_R:
        cls = RiskClass.AVERSE
    elif pmin > TAU_R:
        cls = RiskClass.SEEKING
    elif -TAU_R <= pmin and pmax <= TAU_R:
        cls = RiskClass.NEUTRAL
    else:
        cls = RiskClass.MIXED
    return RiskClassification(cls, pmin, pmax)


def classify_risk(scenario: Scenario, contract: Contract) -> RiskClassification:
    """Contract-dependent risk posture from the sign of the persistence.

    Negative persistence throughout means the expectation is concave in
    effort (risk-averse behavior for this contract), positive means convex
    (risk-seeking, maxima only at the boundary), zero means linear.  A sign
    change is reported as mixed.  A sample that is not finite raises
    DomainError.
    """
    payoff = LinearPayoff.agent(scenario, contract)
    tables = effort_tables(scenario)
    grid = tables.grid(VALIDATION_GRID_POINTS)
    samples = payoff.on_grid(tables, VALIDATION_GRID_POINTS, 2)
    return classify_persistence_samples(require_finite(samples, grid, "persistence"))
