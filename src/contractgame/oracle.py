"""Brute-force and Monte Carlo oracles, kept apart from the solvers.

Nothing here shares search code with the agent solver; these are the
independent yardsticks the test suite measures the solvers against, plus a
seed-reproducible simulator of the three-step game (contract, effort,
nature's draw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractGameError, DomainError
from .model import Contract, EffortInterval, Scenario, profile_probs

__all__ = [
    "GENERATOR_NAME",
    "SimulationResult",
    "grid_argmax",
    "finite_diff_d1",
    "finite_diff_d2",
    "sample_outcome",
    "monte_carlo_payoffs",
]

# numpy's default bit generator; recorded in every SimulationResult so a
# result file pins the exact stream that produced it.
GENERATOR_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class SimulationResult:
    draws: int
    agent_mean: float
    agent_sd: float
    principal_mean: float
    principal_sd: float
    frequencies: tuple[int, ...]
    seed: int
    generator: str = GENERATOR_NAME


def grid_argmax(f, interval: EffortInterval, points: int):
    """Max of f over a uniform grid; ties go to the smallest abscissa.

    Tries one vectorized call first and falls back to a scalar loop for
    callables that cannot take arrays.  Returns (argmax, value).
    """
    if points < 2:
        raise ValueError("grid_argmax needs at least 2 points")
    grid = interval.grid(points)
    try:
        vals = np.asarray(f(grid), dtype=float)
        if vals.shape != grid.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([f(float(t)) for t in grid], dtype=float)
    idx = int(np.argmax(vals))
    return float(grid[idx]), float(vals[idx])


def finite_diff_d1(f, t: float, step: float) -> float:
    return (f(t + step) - f(t - step)) / (2.0 * step)


def finite_diff_d2(f, t: float, step: float) -> float:
    return (f(t + step) - 2.0 * f(t) + f(t - step)) / (step * step)


def _cdf(probs) -> np.ndarray:
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0  # absorb rounding so every uniform draw lands somewhere
    return cdf


def sample_outcome(scenario: Scenario, e: float, rng: np.random.Generator) -> int:
    """Draw one outcome index from p(e) by inverse CDF; advances rng."""
    cdf = _cdf(profile_probs(scenario, e))
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def monte_carlo_payoffs(
    scenario: Scenario,
    contract: Contract,
    e: float,
    n: int,
    seed: int,
) -> SimulationResult:
    """Simulate n plays at fixed contract and effort.

    Per draw the agent receives u(w_i) - v(e) and the principal
    B(x_i - w_i) for the sampled outcome i.  The stream is pcg64 seeded
    with ``seed``; identical inputs reproduce the result bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    scenario.check_contract(contract)
    scenario.interval.require(e)

    rng = np.random.default_rng(seed)
    cdf = _cdf(profile_probs(scenario, e))
    try:
        uniforms = rng.random(n)
    except (MemoryError, ValueError) as err:  # ValueError: beyond numpy's largest array
        raise ContractGameError(f"{n} draws do not fit in memory: {err}") from err
    idx = np.searchsorted(cdf, uniforms, side="right")
    counts = np.bincount(idx, minlength=scenario.n_outcomes)

    u = scenario.agent.utility
    B = scenario.principal.utility
    cost = scenario.agent.effort_cost.eval(e)
    agent_values = np.asarray(
        [u.eval(w) - cost for w in contract.wages], dtype=float
    )
    principal_values = np.asarray(
        [
            B.eval(x - w)
            for x, w in zip(scenario.outcomes, contract.wages)
        ],
        dtype=float,
    )
    agent_draws = agent_values[idx]
    principal_draws = principal_values[idx]

    def _sd(draws: np.ndarray) -> float:
        return float(np.std(draws, ddof=1)) if n > 1 else 0.0

    stats = (
        float(agent_draws.mean()),
        _sd(agent_draws),
        float(principal_draws.mean()),
        _sd(principal_draws),
    )
    if not all(map(math.isfinite, stats)):
        raise DomainError(f"payoff mean or sd is not finite: {stats}")
    return SimulationResult(
        n, *stats, frequencies=tuple(int(c) for c in counts), seed=int(seed)
    )
