"""The contract families that check solve_game against per-contract solves.

BATCHING_FAMILIES, SCREEN_FAMILIES and ERROR_CASES map a name to a
function that builds (scenario, family).  tests/test_principal.py runs
them, and tests/output_digest.py prints their results, so this module
imports only the public names of contractgame (and tests/scenario_gen):
a digest made with it runs on any version of the program that has them.
"""

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
    PrincipalPreferences,
    Scenario,
    Tabulated,
    WageGrid,
)
from scenario_gen import reference_scenario

IDENTITY = Polynomial((0.0, 1.0))


def unit_scenario(outcomes, components, cost, reservation=0.0, utility=IDENTITY,
                  principal=IDENTITY):
    """A scenario on the effort interval [0, 1]."""
    return Scenario(
        outcomes=outcomes,
        interval=EffortInterval(0.0, 1.0),
        profile=EffortProfile(tuple(components)),
        agent=AgentPreferences(utility, cost, reservation),
        principal=PrincipalPreferences(principal),
    )


def unit_game(outcomes, components, cost, grids, **kwargs):
    """unit_scenario and the grid family of grids."""
    return unit_scenario(outcomes, components, cost, **kwargs), ContractFamily(grids=grids)


# ((e - 0.25)(e - 0.75))^2 + e: with p1 = 0.2 + 0.5e, contracts whose
# utility delta is 2 have twin equal peaks at e = 0.25 and e = 0.75, and
# the best of them for the principal depends on the tie-break policy
_TWIN_COST = Polynomial((0.03515625, 0.625, 1.375, -2.0, 1.0))
# a decreasing cost with a notch narrower than a scan cell at e = 0.5: the
# scan peak there brackets no sign change of E', so golden-section runs
_NOTCH_COST = Tabulated(
    (0.0, 0.4999, 0.5, 0.5001, 1.0), (1.0, 0.5001, 0.49, 0.4999, 0.0)
)
SHARED_STEP = (WageGrid(0.0, 4.0, 0.5), WageGrid(0.0, 2.0, 0.5))
BATCHING_FAMILIES = {
    "fixture-shared-step": lambda: (
        reference_scenario()[0],
        ContractFamily(grids=(WageGrid(0.0, 3.0, 0.25), WageGrid(0.0, 1.5, 0.25))),
    ),
    "tabulated-profile": lambda: unit_game(
        (10.0, 2.0),
        [Tabulated((0.0, 0.25, 0.5, 0.75, 1.0), (0.1, 0.3, 0.4, 0.6, 0.65))],
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 4.0, 0.25), WageGrid(0.0, 1.5, 0.25)),
    ),
    "constant-profile-flat": lambda: unit_game(
        (10.0, 2.0), [Polynomial((0.3,))], Polynomial((0.0,)), SHARED_STEP
    ),
    "twin-peaks": lambda: unit_game(
        (10.0, 2.0),
        [Polynomial((0.2, 0.5))],
        _TWIN_COST,
        (WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 2.0, 0.5)),
    ),
    "notch-golden-section": lambda: unit_game(
        (10.0, 2.0), [Polynomial((0.2, 0.5))], _NOTCH_COST, SHARED_STEP
    ),
    "rejections": lambda: unit_game(
        (10.0, 2.0),
        [Polynomial((0.2, 0.5))],
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 4.0, 0.25), WageGrid(0.0, 1.5, 0.25)),
        reservation=1.5,
    ),
    "three-outcomes-zero-deltas": lambda: unit_game(
        (10.0, 5.0, 0.0),
        [Polynomial((0.2, 0.3)), Polynomial((0.3, -0.1))],
        Polynomial((0.0, 0.0, 1.0)),
        (WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 2.0, 0.5), WageGrid(0.0, 1.0, 0.5)),
    ),
}


RISING = [Polynomial((0.2, 0.5))]
# a steep cost under a huge base: E varies by more than the flat test's
# relative tolerance, but near an interior peak its scan steps are below
# the rounding margin of u(w_n) ~ 1e12
_STEEP = (Polynomial((0.0, 0.0, 1e4)), (WageGrid(0.0, 4e4, 5e3), WageGrid(0.0, 2e4, 5e3)))
_HUGE_BASE = Polynomial((1e12, 1.0))


def tied_contracts():
    """Shuffled wage pairs on a 0.5 grid, some twice, plus two with a huge base.

    Under a constant p1 = 0.5 and the cost v(e) = e, the agent takes e = 0
    and the principal gets 6 - (w1 + w2) / 2 exactly, so contracts of equal
    wage sum tie and the lexicographic rule decides.
    """
    pairs = [(a * 0.5, b * 0.5) for a in range(7) for b in range(7)]
    pairs += pairs[10:20] + [(1e12, 1e12 + 0.5), (1e12 + 1.0, 1e12)]
    order = np.random.default_rng(7).permutation(len(pairs))
    scenario = unit_scenario((10.0, 2.0), [Polynomial((0.5,))], Polynomial((0.0, 1.0)), 1.5)
    return scenario, ContractFamily(contracts=tuple(Contract(pairs[i]) for i in order))


def _relatively_flat_contracts():
    """Contracts (1e12 + k, 1e12) with u = w and v = 0, and small ones.

    The huge ones have E = 1e12 + k (0.2 + 0.5e): its scan steps are above
    the rounding margin, yet its spread k/2 is within the flat test's
    relative tolerance, so their solves take the flat shortcut.
    """
    huge = [(1e12 + k, 1e12) for k in range(30, 101, 10)]
    small = [(k / 10.0, 0.0) for k in range(30, 101, 10)]
    scenario = unit_scenario((10.0, 2.0), RISING, Polynomial((0.0,)))
    return scenario, ContractFamily(contracts=tuple(map(Contract, huge + small)))


def _flat_margin_contracts():
    """Contracts (b + d, b) with b = 1e12 - 1e6, u = w, v = 0 and d just above 2000.

    E = b + d (0.2 + 0.5e) spreads d / 2 over the interval, just above the
    flat test's tolerance 1e-9 |b + 0.7d|: the solve does not take the flat
    shortcut, though the spread is within 0.01 of the tolerance.
    """
    base = 1e12 - 1e6
    scenario = unit_scenario((10.0, 2.0), RISING, Polynomial((0.0,)))
    spreads = (2000.0, 2000.00390625, 2000.0078125)
    return scenario, ContractFamily(contracts=tuple(Contract((base + d, base)) for d in spreads))


_KNOTS = (0.0, 0.25, 0.5, 0.75, 1.0)
_POSITIVE_DELTAS = (WageGrid(2.0, 4.0, 0.5), WageGrid(0.0, 1.0, 0.5))


def twin_peak_contracts():
    """A twin-peak contract, a rival whose value lies between its peaks' and a huge one.

    Under _TWIN_COST, (2, 0) leaves the agent tied between e = 0.25 and
    e = 0.75, where the principal gets 3.95 and 5.45; (3, 0.5) gives 5.21.
    So the policy picks the winner.  (1e12 + 2, 1e12) has the same tie
    under a base the flat test's tolerance swamps, so it is solved on its own.
    """
    scenario = unit_scenario((10.0, 2.0), RISING, _TWIN_COST)
    pairs = ((3.0, 0.5), (2.0, 0.0), (1e12 + 2.0, 1e12))
    return scenario, ContractFamily(contracts=tuple(map(Contract, pairs)))


SCREEN_FAMILIES = {
    "twin-peaks-policy-decides": twin_peak_contracts,
    "huge-base": lambda: unit_game((10.0, 2.0), RISING, *_STEEP, utility=_HUGE_BASE),
    "huge-base-flat-within-tolerance": _relatively_flat_contracts,
    # v(e) = e makes E flat for the delta row w1 - w2 = 2 only
    "flat-row": lambda: unit_game(
        (10.0, 2.0), RISING, Polynomial((0.0, 1.0)), SHARED_STEP
    ),
    "golden-section-notch": lambda: unit_game((10.0, 2.0), RISING, _NOTCH_COST, SHARED_STEP),
    "shuffled-ties-duplicates": tied_contracts,
    "all-rejected": lambda: unit_game(
        (10.0, 2.0), RISING, *_STEEP, utility=_HUGE_BASE, reservation=2e12
    ),
    "three-outcomes-zero-deltas": lambda: unit_game(
        (10.0, 5.0, 0.0),
        [Polynomial((0.2, 0.3)), Polynomial((0.3, -0.1))],
        _NOTCH_COST,
        (WageGrid(0.0, 2.0, 0.5),) * 3,
    ),
    # p1 is flat on [0.25, 0.5] and v = 0, so E rises with a flat step
    "flat-step": lambda: unit_game(
        (10.0, 2.0), [Tabulated(_KNOTS, (0.2, 0.4, 0.4, 0.6, 0.7))], Polynomial((0.0,)),
        _POSITIVE_DELTAS,
    ),
    # p1 peaks on the plateau [0.25, 0.5], whose points tie
    "plateau-peak": lambda: unit_game(
        (10.0, 2.0), [Tabulated(_KNOTS, (0.2, 0.4, 0.4, 0.2, 0.1))], Polynomial((0.0,)),
        _POSITIVE_DELTAS,
    ),
    "spread-just-above-flat-tolerance": _flat_margin_contracts,
}


ERROR_CASES = {
    # p2 is undefined below e = 0.5, but w2 = w3 and x2 = x3 give it a zero
    # delta for both parties, so no solve evaluates it
    "zero-delta-component-undefined-on-scan": lambda: unit_game(
        (10.0, 2.0, 2.0),
        [Polynomial((0.2, 0.5)), LogAffine(0.0, 0.1, -0.5)],
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 4.0, 0.5), WageGrid(1.0, 1.0, 1.0), WageGrid(1.0, 1.0, 1.0)),
    ),
    # u(800) = exp(800) overflows; u(600) does not
    "utility-overflow-at-one-wage": lambda: unit_game(
        (10.0, 2.0),
        RISING,
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 800.0, 200.0), WageGrid(0.0, 1.0, 1.0)),
        utility=ExpAffine(0.0, 1.0, 1.0),
    ),
    # B = ln(x - w) is undefined for w1 >= 10, and u = -w makes the agent
    # reject exactly those contracts
    "principal-undefined-where-rejected": lambda: unit_game(
        (10.0, 2.0),
        RISING,
        Polynomial((0.0, 0.0, 2.0)),
        (WageGrid(0.0, 12.0, 2.0), WageGrid(0.0, 1.0, 0.5)),
        reservation=-1.9,
        utility=Polynomial((0.0, -1.0)),
        principal=LogAffine(0.0, 1.0, 0.0),
    ),
    # B(x - w) = 1e308 (x - w): at (11, 1) the levels -1e308 and 1e308 are
    # finite but their delta is not; all three contracts are accepted
    "principal-not-finite-when-accepted": lambda: (
        unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)),
            principal=Polynomial((0.0, 1e308)),
        ),
        ContractFamily(contracts=tuple(map(Contract, ((9.0, 1.0), (11.0, 1.0), (8.5, 1.0))))),
    ),
    # p1 = p2 = 3 (not a distribution; solve_game does not validate) and
    # principal deltas of +-1e308 make every principal value inf - inf = NaN;
    # a NaN key never compares below another, so the first contract wins
    "principal-value-nan": lambda: (
        unit_scenario(
            (10.0, -10.0, 0.0), [Polynomial((3.0,)), Polynomial((3.0,))],
            Polynomial((0.0, 0.0, 2.0)), principal=Polynomial((0.0, 1e307)),
        ),
        ContractFamily(contracts=tuple(Contract((w, w, w)) for w in (1.0, 2.0, 0.5))),
    ),
    "explicit-contract-of-wrong-length": lambda: (
        reference_scenario()[0],
        ContractFamily(
            contracts=(
                Contract((1.0, 0.0)),
                Contract((2.0, 0.0)),
                Contract((3.0, 0.0, 0.0)),
                Contract((4.0, 0.0)),
            )
        ),
    ),
    "grid-count-mismatch": lambda: (
        reference_scenario()[0],
        ContractFamily(grids=(WageGrid(0.0, 1.0, 1.0),) * 3),
    ),
    # u is tabulated on [0, 3], so the solve of (3.5, 0) raises before the
    # contract of three wages is reached
    "raising-contract-before-wrong-length": lambda: (
        unit_scenario(
            (10.0, 2.0), RISING, Polynomial((0.0, 0.0, 2.0)),
            utility=Tabulated((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 1.5, 1.8)),
        ),
        ContractFamily(
            contracts=tuple(map(Contract, ((1.0, 0.0), (3.5, 0.0), (3.0, 0.0, 0.0), (2.0, 0.0))))
        ),
    ),
    "wrong-length-first": lambda: (
        reference_scenario()[0],
        ContractFamily(contracts=tuple(map(Contract, ((1.0, 0.0, 0.0), (1.0, 0.0), (2.0, 0.0))))),
    ),
    # every contract before the one of three wages is accepted
    "wrong-length-after-accepted": lambda: (
        reference_scenario()[0],
        ContractFamily(contracts=tuple(map(Contract, ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0, 0.0))))),
    ),
}
