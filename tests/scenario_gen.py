"""Seeded random scenario builders shared across the test modules.

Every builder takes a numpy Generator so test corpora are reproducible,
and every returned scenario passes the grid validator by construction.
The profile components are built as q_i + r_i * phi(e) with |phi| <= 1 and
amplitudes r_i small enough that all probabilities (including the
complement) stay inside [0.02, 0.98] over the whole effort interval.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
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
    scenario_validate,
)

PROB_MARGIN = 0.02


def reference_scenario() -> tuple[Scenario, Contract]:
    """Two outcomes (10, 2), u(w)=w, p1 = 0.5e + 0.2 on [0,1], v = 2e^2.

    Closed form: E(e) = 2e + 0.8 - 2e^2, so e* = 0.5, E* = 1.3, and the
    persistence is -4 throughout.  Principal payoff at e=0.5 under wages
    (4, 0) with B(y)=y is 3.8.
    """
    scenario = Scenario(
        outcomes=(10.0, 2.0),
        interval=EffortInterval(0.0, 1.0),
        profile=EffortProfile((Polynomial((0.2, 0.5)),)),
        agent=AgentPreferences(
            utility=Polynomial((0.0, 1.0)),
            effort_cost=Polynomial((0.0, 0.0, 2.0)),
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    return scenario, Contract((4.0, 0.0))


def random_interval(rng: np.random.Generator, nonnegative: bool = False) -> EffortInterval:
    lo = 0.0 if nonnegative else float(rng.uniform(-0.5, 0.5))
    span = float(rng.uniform(0.6, 2.5))
    return EffortInterval(lo, lo + span)


def _unit_affine(interval: EffortInterval) -> tuple[float, float]:
    """alpha, beta with alpha + beta*e mapping the interval onto [-1, 1]."""
    beta = 2.0 / interval.span
    alpha = -1.0 - beta * interval.lo
    return alpha, beta


def unit_shape(rng: np.random.Generator, interval: EffortInterval):
    """Random curve with range inside [-1, 1] over the interval."""
    alpha, beta = _unit_affine(interval)
    kind = rng.integers(0, 5)
    if kind == 0:  # affine ramp
        return Polynomial((alpha, beta))
    if kind == 1:  # centered parabola 2u^2 - 1
        return Polynomial(
            (2.0 * alpha * alpha - 1.0, 4.0 * alpha * beta, 2.0 * beta * beta)
        )
    if kind == 2:  # cubic u^3
        return Polynomial(
            (
                alpha**3,
                3.0 * alpha * alpha * beta,
                3.0 * alpha * beta * beta,
                beta**3,
            )
        )
    if kind == 3:  # exponential ramp scaled to [-1, 1]
        c = float(rng.uniform(0.3, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        e_lo = math.exp(c * interval.lo)
        e_hi = math.exp(c * interval.hi)
        b = 2.0 / (e_hi - e_lo)
        return ExpAffine(-1.0 - b * e_lo, b, c)
    knots = np.linspace(interval.lo, interval.hi, int(rng.integers(4, 8)))
    values = rng.uniform(-1.0, 1.0, size=knots.size)
    return Tabulated(tuple(knots), tuple(values))


def random_profile(
    rng: np.random.Generator,
    interval: EffortInterval,
    n_outcomes: int,
    smooth_only: bool = False,
) -> EffortProfile:
    n = n_outcomes
    base = rng.dirichlet(np.ones(n)) * (1.0 - 2.0 * n * PROB_MARGIN) + 2.0 * PROB_MARGIN
    headroom = (1.0 - PROB_MARGIN) - float(base[:-1].sum())
    components = []
    for i in range(n - 1):
        amp_cap = min(base[i] - PROB_MARGIN, headroom / (n - 1))
        amp = float(rng.uniform(0.2, 0.95)) * max(amp_cap, 0.0)
        shape = unit_shape(rng, interval)
        while smooth_only and isinstance(shape, Tabulated):
            shape = unit_shape(rng, interval)
        components.append(_affine_of(shape, base[i], amp))
    return EffortProfile(tuple(components))


def _affine_of(shape, offset: float, scale: float):
    """offset + scale * shape(e), staying within the shape's family."""
    if isinstance(shape, Polynomial):
        coeffs = [scale * c for c in shape.coefficients]
        coeffs[0] += offset
        return Polynomial(tuple(coeffs))
    if isinstance(shape, ExpAffine):
        return ExpAffine(offset + scale * shape.a, scale * shape.b, shape.c)
    if isinstance(shape, Tabulated):
        return Tabulated(
            shape.knots, tuple(offset + scale * v for v in shape.values)
        )
    raise TypeError(f"unsupported shape {shape!r}")


def random_wage_utility(rng: np.random.Generator):
    """Increasing utility defined on wages >= 0."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return Polynomial((float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 2.0))))
    if kind == 1:
        return LogAffine(
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.3, 2.0)),
        )
    if kind == 2:
        return Power(
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.35, 0.9)),
            float(rng.uniform(0.1, 1.0)),
        )
    return ExpAffine(
        float(rng.uniform(-1.0, 1.0)),
        float(rng.uniform(0.2, 1.0)),
        float(rng.uniform(0.05, 0.3)),
    )


def random_effort_cost(
    rng: np.random.Generator, interval: EffortInterval, smooth_only: bool = False
):
    """Effort cost from a mix of shapes (not necessarily classical)."""
    kind = rng.integers(0, 4 if smooth_only else 5)
    if kind == 0:
        return convex_quadratic_cost(rng, interval)
    if kind == 1:  # cubic-ish polynomial, moderate coefficients
        return Polynomial(tuple(rng.uniform(-1.5, 1.5, size=4)))
    if kind == 2:
        b = float(rng.uniform(0.2, 1.5))
        c = float(rng.uniform(0.3, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        return ExpAffine(float(rng.uniform(-0.5, 0.5)), b, c)
    if kind == 3:
        shift = 0.2 - min(interval.lo, 0.0)
        return Power(
            float(rng.uniform(0.3, 1.5)),
            float(rng.uniform(1.3, 3.0)),
            shift + float(rng.uniform(0.0, 0.5)),
        )
    knots = np.linspace(interval.lo, interval.hi, int(rng.integers(4, 8)))
    values = np.cumsum(rng.uniform(-0.5, 0.8, size=knots.size))
    return Tabulated(tuple(knots), tuple(values))


def convex_quadratic_cost(
    rng: np.random.Generator,
    interval: EffortInterval,
    vertex: float | None = None,
    strength: float | None = None,
):
    """a*(e - m)^2 + d with a > 0; vertex m may sit outside the interval."""
    a = strength if strength is not None else float(rng.uniform(0.3, 3.0))
    if vertex is None:
        lo, hi = interval.lo, interval.hi
        vertex = float(rng.uniform(lo - interval.span, hi + interval.span))
    d = float(rng.uniform(-0.5, 0.5))
    return Polynomial((d + a * vertex * vertex, -2.0 * a * vertex, a))


def random_contract(rng: np.random.Generator, n_outcomes: int) -> Contract:
    return Contract(tuple(float(w) for w in rng.uniform(0.0, 8.0, size=n_outcomes)))


def random_outcomes(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(x) for x in rng.uniform(-5.0, 20.0, size=n))


def random_scenario(
    rng: np.random.Generator,
    smooth_only: bool = False,
    n_outcomes: int | None = None,
) -> tuple[Scenario, Contract]:
    """General random scenario plus a matching random contract."""
    n = n_outcomes if n_outcomes is not None else int(rng.integers(2, 5))
    interval = random_interval(rng)
    scenario = Scenario(
        outcomes=random_outcomes(rng, n),
        interval=interval,
        profile=random_profile(rng, interval, n, smooth_only=smooth_only),
        agent=AgentPreferences(
            utility=random_wage_utility(rng),
            effort_cost=random_effort_cost(rng, interval, smooth_only=smooth_only),
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    contract = random_contract(rng, n)
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract


def constant_profile_scenario(
    rng: np.random.Generator,
) -> tuple[Scenario, Contract, float]:
    """Constant profile with strictly convex cost; returns the known argmin.

    The cost is either a quadratic with a known vertex or a strictly
    monotone convex curve, so the argmin over the interval is analytic.
    """
    n = int(rng.integers(2, 5))
    interval = random_interval(rng)
    base = rng.dirichlet(np.ones(n)) * (1.0 - 2.0 * n * PROB_MARGIN) + 2.0 * PROB_MARGIN
    components = tuple(Polynomial((float(q),)) for q in base[:-1])

    lo, hi = interval.lo, interval.hi
    margin = 0.05 * interval.span
    kind = rng.integers(0, 3)
    if kind == 0:  # interior vertex
        vertex = float(rng.uniform(lo + margin, hi - margin))
        cost = convex_quadratic_cost(rng, interval, vertex=vertex)
        argmin = vertex
    elif kind == 1:  # vertex pushed outside, argmin at the nearer boundary
        if rng.random() < 0.5:
            vertex = float(rng.uniform(lo - 2.0 * interval.span, lo - margin))
            argmin = lo
        else:
            vertex = float(rng.uniform(hi + margin, hi + 2.0 * interval.span))
            argmin = hi
        cost = convex_quadratic_cost(rng, interval, vertex=vertex)
    else:  # strictly monotone convex exponential
        c = float(rng.uniform(0.4, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        cost = ExpAffine(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.3, 1.5)), c)
        argmin = lo if c > 0.0 else hi

    scenario = Scenario(
        outcomes=random_outcomes(rng, n),
        interval=interval,
        profile=EffortProfile(components),
        agent=AgentPreferences(
            utility=random_wage_utility(rng), effort_cost=cost
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    contract = random_contract(rng, n)
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract, argmin


def linear_two_outcome_scenario(
    rng: np.random.Generator,
    reservation: float = 0.0,
) -> tuple[Scenario, Contract]:
    """Two outcomes, affine p1 within probability bounds, convex cost."""
    interval = random_interval(rng)
    p_lo = float(rng.uniform(0.05, 0.95))
    p_hi = float(rng.uniform(0.05, 0.95))
    slope = (p_hi - p_lo) / interval.span
    intercept = p_lo - slope * interval.lo
    if rng.random() < 0.7:
        cost = convex_quadratic_cost(rng, interval)
    else:
        cost = ExpAffine(
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0.3, 1.5)),
            float(rng.uniform(0.4, 1.5)) * (1.0 if rng.random() < 0.5 else -1.0),
        )
    scenario = Scenario(
        outcomes=random_outcomes(rng, 2),
        interval=interval,
        profile=EffortProfile((Polynomial((intercept, slope)),)),
        agent=AgentPreferences(
            utility=random_wage_utility(rng),
            effort_cost=cost,
            reservation_utility=reservation,
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    contract = random_contract(rng, 2)
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract


def _linear_profile_and_utility(rng, interval, n):
    """Affine components plus linear u; returns (profile, u, contract, T)

    where T = sum_i p_i'(e) * (u(w_i) - u(w_n)) is the constant motivation
    contribution of the profile term, accumulated in the same order the
    solver uses so exact cancellation is reproducible.
    """
    base = rng.dirichlet(np.ones(n)) * (1.0 - 2.0 * n * PROB_MARGIN) + 2.0 * PROB_MARGIN
    headroom = (1.0 - PROB_MARGIN) - float(base[:-1].sum())
    alpha, beta = _unit_affine(interval)
    components = []
    slopes = []
    for i in range(n - 1):
        amp_cap = min(base[i] - PROB_MARGIN, headroom / (n - 1))
        amp = float(rng.uniform(0.3, 0.95)) * max(amp_cap, 0.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        components.append(
            Polynomial((base[i] + sign * amp * alpha, sign * amp * beta))
        )
        slopes.append(sign * amp * beta)
    utility = Polynomial(
        (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.3, 2.0)))
    )
    contract = random_contract(rng, n)
    u_last = utility.eval(contract[n - 1])
    motivation_term = 0.0
    for i in range(n - 1):
        delta = utility.eval(contract[i]) - u_last
        if delta != 0.0:
            motivation_term = motivation_term + delta * slopes[i]
    return tuple(components), utility, contract, motivation_term


def averse_taxonomy_scenario(rng: np.random.Generator):
    """Linear profile, linear u, strictly convex v with an interior optimum.

    The quadratic cost vertex is placed so that the first-order condition
    root lands strictly inside the interval; returns the analytic optimum.
    """
    n = int(rng.integers(2, 4))
    interval = random_interval(rng)
    components, utility, contract, T = _linear_profile_and_utility(rng, interval, n)
    a = float(rng.uniform(0.3, 3.0))
    margin = 0.02 * interval.span
    e_star = float(rng.uniform(interval.lo + margin, interval.hi - margin))
    vertex = e_star - T / (2.0 * a)
    cost = convex_quadratic_cost(rng, interval, vertex=vertex, strength=a)
    scenario = Scenario(
        outcomes=random_outcomes(rng, n),
        interval=interval,
        profile=EffortProfile(components),
        agent=AgentPreferences(utility=utility, effort_cost=cost),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract, e_star


def seeking_taxonomy_scenario(rng: np.random.Generator):
    """Convex p1 (quadratic in e), linear u with positive wage spread."""
    interval = random_interval(rng, nonnegative=True)
    hi = interval.hi
    curvature = float(rng.uniform(0.1, 0.8)) / (hi * hi)
    intercept = float(rng.uniform(0.05, 0.9 - curvature * hi * hi))
    u_slope = float(rng.uniform(0.5, 2.0))
    w2 = float(rng.uniform(0.0, 3.0))
    w1 = w2 + float(rng.uniform(1.0, 5.0))
    # keep any cost curvature well below the profile's contribution
    prst_floor = 2.0 * curvature * u_slope * (w1 - w2)
    if rng.random() < 0.5:
        cost = Polynomial((0.0, float(rng.uniform(-0.5, 0.5))))
    else:
        a = float(rng.uniform(0.05, 0.3)) * prst_floor / 2.0
        cost = Polynomial((0.0, float(rng.uniform(-0.5, 0.5)), a))
    scenario = Scenario(
        outcomes=random_outcomes(rng, 2),
        interval=interval,
        profile=EffortProfile((Polynomial((intercept, 0.0, curvature)),)),
        agent=AgentPreferences(
            utility=Polynomial((0.0, u_slope)),
            effort_cost=cost,
            reservation_utility=-1e9,
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    contract = Contract((w1, w2))
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract


def neutral_taxonomy_scenario(rng: np.random.Generator, constant: bool):
    """All-linear scenario; motivation is exactly zero when ``constant``."""
    n = int(rng.integers(2, 4))
    interval = random_interval(rng)
    components, utility, contract, T = _linear_profile_and_utility(rng, interval, n)
    if constant:
        cost_slope = T
    else:
        shift = float(rng.uniform(0.05, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        cost_slope = T + shift
    cost = Polynomial((float(rng.uniform(-0.5, 0.5)), cost_slope))
    scenario = Scenario(
        outcomes=random_outcomes(rng, n),
        interval=interval,
        profile=EffortProfile(components),
        agent=AgentPreferences(
            utility=utility, effort_cost=cost, reservation_utility=-1e9
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )
    assert not scenario_validate(scenario, (contract,))
    return scenario, contract, T - cost_slope


GAME_CORPUS_KINDS = ("random", "constant", "linear", "averse", "seeking", "neutral")


def _corpus_document(rng: np.random.Generator, kind: str) -> tuple[Scenario, Contract]:
    if kind == "random":
        return random_scenario(rng)
    if kind == "constant":
        return constant_profile_scenario(rng)[:2]
    if kind == "linear":
        return linear_two_outcome_scenario(rng)
    if kind == "averse":
        return averse_taxonomy_scenario(rng)[:2]
    if kind == "seeking":
        return seeking_taxonomy_scenario(rng)
    return neutral_taxonomy_scenario(rng, constant=bool(rng.random() < 0.5))[:2]


def game_corpus(count: int, seed: int) -> list[tuple[str, Scenario, ContractFamily]]:
    """(kind, scenario, family) for count documents of every kind in turn.

    Each family is a shared-step wage grid on every outcome, 64-81
    contracts with wages in [0, 8].  Every third document has its
    reservation utility raised to E* of the grid's middle contract (every
    wage at the grid's midpoint), so some of the family's contracts are
    rejected.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for k in range(count):
        kind = GAME_CORPUS_KINDS[k % len(GAME_CORPUS_KINDS)]
        scenario, _ = _corpus_document(rng, kind)
        n = scenario.n_outcomes
        side = {2: 9, 3: 4, 4: 3}[n]
        step = float(rng.choice((0.25, 0.5, 1.0)))
        grid = WageGrid(0.0, step * (side - 1), step)
        if k % 3 == 2:
            middle = Contract((0.5 * grid.hi,) * n)
            demanding = agent_best_response(scenario, middle).optimal_expectation
            scenario = dataclasses.replace(
                scenario,
                agent=dataclasses.replace(scenario.agent, reservation_utility=demanding),
            )
        family = ContractFamily(grids=(grid,) * n)
        corpus.append((kind, scenario, family))
    return corpus
