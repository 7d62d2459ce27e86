"""Independent backward-induction oracle used to check solve_game.

Per candidate contract the agent's effort is located by a dense-grid argmax
over the expectation closure followed by a local golden-section refinement
written here, and the principal's payoff is an inline probability-weighted
sum.  Nothing is shared with the solver's best-response search.

``row_build`` is the reference for solve_game's batched row build: one
utility-delta row's tables (a ``Row``), searched alone with the
per-contract stages, and its point values from one scalar call per curve
and point (``row_points``); ``row_efforts`` gives that search's settled
efforts and open brackets.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from contractgame import agent_payoff_functions, grid_argmax, profile_probs
from contractgame.agent import LinearPayoff, scan_candidates, settle_points
from contractgame.tables import SCAN_GRID_POINTS

_INV_PHI = 0.5 * (np.sqrt(5.0) - 1.0)

# a utility-delta row's tables, as principal._screen's docstring defines them
Row = namedtuple("Row", "top span size points")


def refine_max(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Golden-section maximizer on [a, b], local to this oracle."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def enumeration_oracle(scenario, family, argmax_points: int = 4097):
    """Best (contract, effort, payoff) by exhaustive enumeration.

    Returns None when the agent rejects every candidate.  Contract ties
    break on the lexicographically smaller wage vector, matching the
    solver's published rule.
    """
    interval = scenario.interval
    step = interval.span / (argmax_points - 1)
    best = None
    for contract in family:
        value, _, _ = agent_payoff_functions(scenario, contract)
        arg, _ = grid_argmax(value, interval, argmax_points)
        effort = refine_max(
            value,
            max(interval.lo, arg - step),
            min(interval.hi, arg + step),
        )
        if value(effort) < scenario.agent.reservation_utility:
            continue
        probs = profile_probs(scenario, effort)
        B = scenario.principal.utility
        payoff = sum(
            p * B.eval(x - w)
            for p, x, w in zip(probs, scenario.outcomes, contract.wages)
        )
        key = (-payoff, contract.wages)
        if best is None or key < best[0]:
            best = (key, contract, effort, payoff)
    if best is None:
        return None
    return best[1], best[2], best[3]


def row_points(scenario, deltas, points) -> np.ndarray:
    """The rows x, a, v, p_1, ... of a delta row at the points x, one scalar call
    per curve and point, a summed from -0.0 as LinearPayoff.value sums it;
    raises where a call raises or a or v is not finite."""
    cost = scenario.agent.effort_cost
    p = [[comp.eval(c) for c in points] for comp in scenario.profile.components]
    a = []
    for k in range(len(points)):
        acc = -0.0
        for delta, pk in zip(deltas, p):
            if delta != 0.0:
                acc = acc + delta * pk[k]
        a.append(acc)
    v = [cost.eval(c) for c in points]
    if not all(map(math.isfinite, a + v)):
        raise ValueError(f"objective is not finite at {points}")
    return np.array([points, a, v, *p], dtype=float)


def row_build(scenario, tables, deltas, cost_size):
    """The Row of the row searched alone, and why it is None: (row, None) for
    a built row, (None, why) with why "raises", "not finite" or "open
    bracket" for a row without a screen.

    cost_size() is the effort cost's largest magnitude on the scan.
    """
    try:
        payoff = LinearPayoff(scenario, (*deltas, 0.0), scenario.agent.effort_cost)
        h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
        top = float(h.max())
        low = float(h.min())
        size = max(top, -low) + 2.0 * cost_size()
        if not math.isfinite(size):
            return None, "not finite"
        roots, open_brackets = scan_candidates(payoff, tables, h)
        if open_brackets:
            return None, "open bracket"
        points = row_points(scenario, deltas, settle_points(roots, scenario.interval))
    except Exception:
        return None, "raises"
    a_max, v_max = np.abs(points[1:3]).max(axis=1)
    return Row(top, top - low, float(max(size, a_max + v_max)), points), None


def row_efforts(scenario, tables, deltas):
    """(efforts, open_brackets) of the row searched alone: the settled
    candidate efforts, one per column of row_build's points, and the scan
    brackets with no sign change of the slope.  For a row whose search
    does not raise."""
    payoff = LinearPayoff(scenario, (*deltas, 0.0), scenario.agent.effort_cost)
    h = payoff.on_grid(tables, SCAN_GRID_POINTS, 0)
    roots, open_brackets = scan_candidates(payoff, tables, h)
    return settle_points(roots, scenario.interval), open_brackets
