"""Known wrong answers, pinned as strict expected failures.

Each test asserts the right answer, which the program does not give yet;
its reason names the ROADMAP item whose fix makes it pass, and it expects
only the failure of that answer's check.  The marks are strict, so the
change that fixes one must remove its mark.
"""

import pytest

from contractgame import (
    ContractGameError,
    EffortProfile,
    Polynomial,
    RiskClass,
    Scenario,
    Tabulated,
    agent_best_response,
    agent_expectation,
    classify_risk,
    scenario_validate,
)
from contractgame.agent import TAU_EXPECTATION
from scenario_gen import reference_scenario


def _with_profile(component):
    """The fixture economics, outcomes (10, 2) on [0, 1], u(w) = w,
    v(e) = 2e^2, B(z) = z, with p1 = component, and the contract (4, 0)."""
    scenario, contract = reference_scenario()
    return Scenario(
        outcomes=scenario.outcomes,
        interval=scenario.interval,
        profile=EffortProfile((component,)),
        agent=scenario.agent,
        principal=scenario.principal,
    ), contract


def _spike():
    """p1 = 0.2 but for a spike to 0.9 at e = 0.30001, narrower than a scan step."""
    return _with_profile(Tabulated((0.0, 0.3, 0.30001, 0.30002, 1.0), (0.2, 0.2, 0.9, 0.2, 0.2)))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 3a and 3b: certified global search",
)
def test_spike_between_scan_points_is_the_optimum():
    scenario, contract = _spike()
    assert scenario_validate(scenario, (contract,)) == []
    peak = agent_expectation(scenario, contract, 0.30001)
    best = agent_best_response(scenario, contract).optimal_expectation
    assert best >= peak - TAU_EXPECTATION * max(1.0, abs(peak))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 3a and 3b: certified global search",
)
def test_spike_between_scan_points_is_not_risk_averse():
    scenario, contract = _spike()
    assert classify_risk(scenario, contract).classification is not RiskClass.AVERSE


@pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception,
    reason="ROADMAP item 6: validate at the library boundary",
)
def test_out_of_range_profile_is_refused_by_the_solver():
    scenario, contract = _with_profile(Polynomial((1.5, 0.5)))
    assert len(scenario_validate(scenario, (contract,))) == 2
    with pytest.raises(ContractGameError):
        agent_best_response(scenario, contract)
