"""Scenario construction, profile evaluation, and grid validation."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from contractgame import (
    AgentPreferences,
    Contract,
    DimensionError,
    DomainError,
    EffortInterval,
    EffortProfile,
    ExpAffine,
    LogAffine,
    Polynomial,
    PrincipalPreferences,
    ProbabilityRangeError,
    Scenario,
    ValidationError,
    WageGrid,
    ensure_valid,
    profile_matrix,
    profile_probs,
    scenario_validate,
)
from scenario_gen import random_scenario, reference_scenario


def _simple_scenario(p1, v=None, n_extra=0):
    curves = (p1,) + tuple(Polynomial((0.1,)) for _ in range(n_extra))
    return Scenario(
        outcomes=tuple(float(x) for x in range(2 + n_extra, 0, -1)),
        interval=EffortInterval(0.0, 1.0),
        profile=EffortProfile(curves),
        agent=AgentPreferences(
            utility=Polynomial((0.0, 1.0)),
            effort_cost=v if v is not None else Polynomial((0.0, 0.0, 1.0)),
        ),
        principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
    )


def test_profile_probs_linear_component():
    scenario = _simple_scenario(Polynomial((0.2, 0.5)))
    assert profile_probs(scenario, 0.6) == (0.5, 0.5)


def test_profile_probs_constant_profile():
    scenario = _simple_scenario(Polynomial((0.3,)))
    for e in (0.0, 0.37, 1.0):
        assert profile_probs(scenario, e) == (0.3, 0.7)


def test_profile_probs_out_of_range():
    scenario = _simple_scenario(Polynomial((0.0, 2.0)))
    with pytest.raises(ProbabilityRangeError):
        profile_probs(scenario, 0.9)


def test_profile_probs_outside_interval():
    scenario = _simple_scenario(Polynomial((0.2, 0.5)))
    with pytest.raises(DomainError):
        profile_probs(scenario, 1.5)


def test_profile_probs_sum_exactly_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        scenario, _ = random_scenario(rng)
        for e in rng.uniform(scenario.interval.lo, scenario.interval.hi, size=10):
            probs = profile_probs(scenario, float(e))
            assert math.fsum(probs) == 1.0
            assert all(0.0 <= p <= 1.0 for p in probs)


def test_profile_matrix_matches_scalar():
    rng = np.random.default_rng(8)
    scenario, _ = random_scenario(rng)
    grid = scenario.interval.grid(101)
    mat = profile_matrix(scenario, grid)
    for row, e in zip(mat, grid):
        np.testing.assert_allclose(
            row, profile_probs(scenario, float(e)), rtol=0, atol=1e-12
        )


def test_profile_matrix_out_of_range():
    scenario = _simple_scenario(Polynomial((1.5, 0.5)))
    with pytest.raises(ProbabilityRangeError) as err:
        profile_matrix(scenario, np.array([0.0, 0.5, 1.0]))
    assert str(err.value) == (
        "profile component 0 = 1.5 at effort 0.0 outside [0, 1] beyond tolerance 1e-09"
    )


def test_scenario_needs_two_outcomes():
    with pytest.raises(DimensionError):
        Scenario(
            outcomes=(1.0,),
            interval=EffortInterval(0.0, 1.0),
            profile=EffortProfile((Polynomial((0.5,)),)),
            agent=AgentPreferences(Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0))),
            principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
        )


def test_profile_dimension_must_match():
    with pytest.raises(DimensionError):
        _simple_scenario(Polynomial((0.2,)), n_extra=0).__class__(
            outcomes=(3.0, 2.0, 1.0),
            interval=EffortInterval(0.0, 1.0),
            profile=EffortProfile((Polynomial((0.2,)),)),
            agent=AgentPreferences(Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0))),
            principal=PrincipalPreferences(Polynomial((0.0, 1.0))),
        )


def test_interval_invariants():
    with pytest.raises(DimensionError):
        EffortInterval(1.0, 1.0)
    with pytest.raises(DimensionError):
        EffortInterval(0.0, math.inf)
    with pytest.raises(DimensionError, match="width overflows"):
        EffortInterval(-1e308, 1e308)
    assert EffortInterval(-1e307, 1e307).span == 2e307


def test_validate_well_formed():
    scenario, contract = reference_scenario()
    assert scenario_validate(scenario, (contract,)) == []


def test_validate_contract_length_mismatch():
    scenario, _ = reference_scenario()
    issues = scenario_validate(scenario, (Contract((1.0, 2.0, 3.0)),))
    assert len(issues) == 1
    assert isinstance(issues[0], DimensionError)


def test_validate_negative_probability():
    scenario = _simple_scenario(Polynomial((-0.5, 1.0)))  # p1 = e - 0.5
    issues = scenario_validate(scenario)
    assert any(isinstance(i, ProbabilityRangeError) for i in issues)


def test_validate_flags_non_finite_values():
    scenario = _simple_scenario(
        Polynomial((0.2, math.nan)),
        v=ExpAffine(0.0, 1.0, 1000.0),  # exp overflows past e ~ 0.71
    )
    issues = scenario_validate(scenario, (Contract((1e308, 0.0)),))
    messages = [str(i) for i in issues]
    assert any(isinstance(i, ProbabilityRangeError) and "nan" in str(i) for i in issues)
    assert any(m.startswith("effort cost: non-finite value inf") for m in messages)
    assert not any("wage utility" in m for m in messages)
    scenario = _simple_scenario(Polynomial((0.2,)))
    scenario = replace(
        scenario, agent=replace(scenario.agent, utility=ExpAffine(0.0, 1.0, 1.0))
    )
    messages = [str(i) for i in scenario_validate(scenario, (Contract((1000.0, 0.0)),))]
    assert messages == ["wage utility at contract 0 w1: exp(1000.0) overflows"]


def test_validate_collects_multiple_issues():
    scenario = _simple_scenario(
        Polynomial((-0.5, 1.0)),
        v=LogAffine(0.0, 1.0, -0.5),  # undefined on [0, 0.5]
    )
    issues = scenario_validate(scenario, (Contract((1.0, 2.0, 3.0)),))
    kinds = {type(i) for i in issues}
    assert ProbabilityRangeError in kinds
    assert DomainError in kinds
    assert DimensionError in kinds


def test_validate_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        scenario, contract = random_scenario(rng)
        assert scenario_validate(scenario, (contract,)) == []
        assert scenario_validate(scenario, (contract,)) == []


def test_ensure_valid_raises_aggregate():
    scenario = _simple_scenario(Polynomial((-0.5, 1.0)))
    with pytest.raises(ValidationError) as err:
        ensure_valid(scenario)
    assert err.value.issues


def _fraction_values(grid):
    """WageGrid.values by Fraction arithmetic per value, the reference."""
    lo, step = (Fraction(repr(float(x))) for x in (grid.lo, grid.step))
    return tuple(float(lo + k * step) for k in range(grid.count()))


def test_wage_grid_values_keep_the_fraction_bits():
    rng = random.Random(20)
    grids = [WageGrid(-0.0, 1.0, 0.1), WageGrid(-3.3, 3.3, 1.1), WageGrid(1e20, 1.5e21, 1.5e20)]
    for _ in range(2000):
        lo = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 1e3) * 10.0 ** rng.randint(-6, 6)
        step = 10.0 ** rng.uniform(-5.0, 20.0)
        if rng.random() < 0.5:  # a short decimal, as documents give
            lo, step = round(lo, rng.randint(0, 4)), round(step, rng.randint(0, 6)) or step
        grids.append(WageGrid(lo, lo + step * rng.randint(0, 30), step))
    for grid in grids:
        got, expected = grid.values(), _fraction_values(grid)
        assert [x.hex() for x in got] == [x.hex() for x in expected], grid
