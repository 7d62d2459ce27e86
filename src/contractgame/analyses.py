"""Closed-form analyzers for structured scenarios.

Two structures admit pencil-and-paper treatment and serve as cross-checks
on the general solver: profiles that do not react to effort (the agent just
minimizes the effort cost), and two-outcome scenarios with an affine first
probability component (interior optima solve C*(u(w1)-u(w2)) = v'(e)).
A third report audits the textbook monotonicity/curvature assumptions on
u and v and flags the generalized-agent cases this model admits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import (
    TAU_E,
    BestResponse,
    LinearPayoff,
    RiskClassification,
    best_response_from,
    bracket_roots,
    classify_persistence_samples,
    dedup_sorted,
    flat_scan,
    hybrid_maximize,
    settle,
)
from .errors import NotTwoOutcomeLinearError
from .curves import Polynomial
from .model import EPSILON_INVISIBLE, Contract, Scenario, require_finite
from .tables import MT_GRID_POINTS, VALIDATION_GRID_POINTS, effort_tables

__all__ = [
    "EPSILON_INVISIBLE",
    "InvisibleEffortReport",
    "TwoOutcomeLinearReport",
    "AssumptionCheck",
    "ClassicalAssumptionsReport",
    "detect_invisible_effort",
    "two_outcome_linear_analysis",
    "classical_assumptions_report",
]

@dataclass(frozen=True)
class InvisibleEffortReport:
    """Outcome of the flat-profile detector.

    When the profile is flat, wages drop out of the agent's problem and the
    best response is the argmin set of the effort cost; ``best_response``
    then holds those efforts (its expectation values are -v, the objective
    actually maximized).  Both solution fields are None when the profile
    does react to effort.
    """

    is_invisible: bool
    max_profile_deviation: float
    epsilon: float
    best_response: BestResponse | None
    risk: RiskClassification | None


@dataclass(frozen=True)
class TwoOutcomeLinearReport:
    slope: float
    intercept: float
    foc_target: float
    interior_solutions: tuple[float, ...]
    interior_values: tuple[float, ...]
    boundary_values: tuple[float, float]
    best_response: BestResponse
    reduces_to_invisible: bool
    invisible: InvisibleEffortReport | None


@dataclass(frozen=True)
class AssumptionCheck:
    holds: bool
    witness_point: float | None = None
    witness_value: float | None = None


@dataclass(frozen=True)
class ClassicalAssumptionsReport:
    wage_range: tuple[float, float]
    u_increasing: AssumptionCheck
    u_weakly_concave: AssumptionCheck
    v_increasing: AssumptionCheck
    v_weakly_convex: AssumptionCheck
    inner_work_need: bool
    effort_yields_utility: bool
    cost_concave_somewhere: bool
    classical: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "classical",
            self.u_increasing.holds
            and self.u_weakly_concave.holds
            and self.v_increasing.holds
            and self.v_weakly_convex.holds,
        )


def detect_invisible_effort(
    scenario: Scenario, epsilon: float = EPSILON_INVISIBLE
) -> InvisibleEffortReport:
    """Check whether the outcome distribution is (nearly) effort-independent.

    Deviation is measured against the profile at the interval midpoint,
    over all components including the complement.  If it stays within
    epsilon, the agent's problem collapses to minimizing v: the report
    carries the argmin set and the risk posture implied by -v''.  The
    argmin set comes from hybrid_maximize on the LinearPayoff with every
    level -0.0: it has no term and base -0.0, so its value, based scan and
    settled pairs are -v bit for bit, and a zero cost reports -0.0.
    """
    tables = effort_tables(scenario)
    grid = tables.grid(VALIDATION_GRID_POINTS)
    mid = 0.5 * (scenario.interval.lo + scenario.interval.hi)
    deviation = 0.0
    total_grid = np.zeros_like(grid)
    total_mid = 0.0
    for comp in scenario.profile.components:
        vals = tables.array(comp, VALIDATION_GRID_POINTS)
        ref = comp.eval(mid)
        deviation = max(deviation, float(np.max(np.abs(vals - ref))))
        total_grid += vals
        total_mid += ref
    deviation = max(
        deviation, float(np.max(np.abs((1.0 - total_grid) - (1.0 - total_mid))))
    )

    if deviation > epsilon:
        return InvisibleEffortReport(False, deviation, epsilon, None, None)

    cost = scenario.agent.effort_cost
    payoff = LinearPayoff(scenario, (-0.0,) * scenario.n_outcomes, cost)
    pairs, best, constant = hybrid_maximize(payoff, tables)
    best_response = best_response_from(pairs, best, constant, scenario.interval, True)
    samples = -tables.array(cost, VALIDATION_GRID_POINTS, 2)
    risk = classify_persistence_samples(require_finite(samples, grid, "persistence"))
    return InvisibleEffortReport(True, deviation, epsilon, best_response, risk)


def two_outcome_linear_analysis(
    scenario: Scenario, contract: Contract
) -> TwoOutcomeLinearReport:
    """First-order-condition solution for p1(e) = C*e + h with two outcomes.

    Interior optima satisfy v'(e) = C*(u(w1)-u(w2)), the roots of the
    payoff's own slope.  The candidates are the boundaries plus the roots
    more than ``TAU_E`` inside them, found, settled and tie-filtered by the
    general solver's stages (without its value-scan peaks, so the two stay
    independent cross-checks).  With C = 0 the case degenerates to an
    invisible-effort scenario and the matching report is attached.
    """
    if scenario.n_outcomes != 2:
        raise NotTwoOutcomeLinearError(
            f"needs exactly 2 outcomes, got {scenario.n_outcomes}"
        )
    comp = scenario.profile.components[0]
    if not isinstance(comp, Polynomial) or comp.degree() > 1:
        raise NotTwoOutcomeLinearError(
            "first profile component must be a polynomial of degree <= 1"
        )
    coeffs = comp.coefficients
    intercept = coeffs[0]
    slope = coeffs[1] if len(coeffs) > 1 else 0.0

    payoff = LinearPayoff.agent(scenario, contract)
    target = slope * payoff.deltas[0]
    interval = scenario.interval
    lo, hi = interval.lo, interval.hi
    tables = effort_tables(scenario)

    _, flat = flat_scan(payoff, tables)
    if flat is not None:
        pairs, best, constant = flat
        interior, interior_values = (), ()
        boundary_values = (pairs[0][1], pairs[1][1])
    else:
        gv = payoff.on_grid(tables, MT_GRID_POINTS, 1)
        roots = dedup_sorted(
            bracket_roots(payoff.slope, tables.grid(MT_GRID_POINTS), gv, minima=True)
        )
        interior = tuple(r for r in roots if r - lo > TAU_E and hi - r > TAU_E)
        # settle keeps both boundaries, first and last: no interior root is
        # within TAU_E of them
        evaluated, pairs, best = settle(payoff.value, interior, interval)
        boundary_values = (evaluated[0][1], evaluated[-1][1])
        interior_values = tuple(fe for _, fe in evaluated[1:-1])
        constant = False

    reduces = slope == 0.0
    return TwoOutcomeLinearReport(
        slope=slope,
        intercept=intercept,
        foc_target=target,
        interior_solutions=interior,
        interior_values=interior_values,
        boundary_values=boundary_values,
        best_response=best_response_from(
            pairs, best, constant, interval, best >= scenario.agent.reservation_utility
        ),
        reduces_to_invisible=reduces,
        invisible=detect_invisible_effort(scenario) if reduces else None,
    )


def _grid_check(mask: np.ndarray, grid: np.ndarray, vals: np.ndarray) -> AssumptionCheck:
    if bool(np.all(mask)):
        return AssumptionCheck(True)
    first = int(np.argmin(mask))
    return AssumptionCheck(False, float(grid[first]), float(vals[first]))


def classical_assumptions_report(
    scenario: Scenario, wage_range: tuple[float, float]
) -> ClassicalAssumptionsReport:
    """Audit u'(w) > 0, u''(w) <= 0, v'(e) > 0 and v''(e) >= 0 on grids.

    Failures carry the first offending grid point.  Two generalized-agent
    flags are reported alongside: negative marginal cost somewhere (the
    agent wants to work) and negative cost somewhere (effort itself yields
    utility).  A concave stretch of v is surfaced separately because the
    risk conclusions here lean on v being convex.  A derivative that is
    not finite on its grid raises DomainError.
    """
    lo, hi = float(wage_range[0]), float(wage_range[1])
    if hi < lo:
        lo, hi = hi, lo
    wgrid = np.linspace(lo, hi, VALIDATION_GRID_POINTS)
    tables = effort_tables(scenario)
    egrid = tables.grid(VALIDATION_GRID_POINTS)

    u = scenario.agent.utility
    v = scenario.agent.effort_cost
    u1 = require_finite(np.asarray(u.d1(wgrid), dtype=float), wgrid, "u'")
    u2 = require_finite(np.asarray(u.d2(wgrid), dtype=float), wgrid, "u''")
    v0 = tables.array(v, VALIDATION_GRID_POINTS)
    v1 = require_finite(tables.array(v, VALIDATION_GRID_POINTS, 1), egrid, "v'")
    v2 = require_finite(tables.array(v, VALIDATION_GRID_POINTS, 2), egrid, "v''")

    return ClassicalAssumptionsReport(
        wage_range=(lo, hi),
        u_increasing=_grid_check(u1 > 0.0, wgrid, u1),
        u_weakly_concave=_grid_check(u2 <= 0.0, wgrid, u2),
        v_increasing=_grid_check(v1 > 0.0, egrid, v1),
        v_weakly_convex=_grid_check(v2 >= 0.0, egrid, v2),
        inner_work_need=bool(np.any(v1 < 0.0)),
        effort_yields_utility=bool(np.any(v0 < 0.0)),
        cost_concave_somewhere=bool(np.any(v2 < 0.0)),
    )
