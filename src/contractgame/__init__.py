"""Solver library for finite-outcome principal-agent contract games.

Build a :class:`Scenario` (outcomes, effort interval, effort-dependent
outcome distribution, both parties' preferences), then:

* :func:`agent_best_response` solves the agent's effort problem under a
  fixed contract and reports every global maximizer,
* :func:`classify_risk` reads the contract-dependent risk posture off the
  sign of the expectation's second derivative,
* :func:`solve_game` completes the backward induction by exhaustive search
  over a finite contract family,
* :mod:`contractgame.analyses` provides closed-form treatments of the
  flat-profile and two-outcome-linear special cases, and
* :mod:`contractgame.oracle` holds independent brute-force and Monte Carlo
  checks.

The ``contractgame`` command line drives all of it from JSON scenario
documents.
"""

import importlib

# every public name, by the module that defines it; a name is imported from
# its module on first access (PEP 562), so `import contractgame` loads none
_HOMES = {
    "curves": ("Curve", "ExpAffine", "LogAffine", "Polynomial", "Power", "Tabulated"),
    "errors": (
        "ContractGameError", "DimensionError", "DomainError", "EnumerationCapExceeded",
        "NotTwoOutcomeLinearError", "ParseError", "ProbabilityRangeError", "ValidationError",
    ),
    "model": (
        "AgentPreferences", "Contract", "ContractFamily", "EffortInterval", "EffortProfile",
        "PrincipalPreferences", "Scenario", "WageGrid", "ensure_valid", "profile_matrix",
        "profile_probs", "scenario_validate",
    ),
    "agent": (
        "BestResponse", "Maximizer", "MaximizerKind", "RiskClass", "RiskClassification",
        "agent_best_response", "agent_expectation", "agent_payoff_functions",
        "classify_risk", "motivation", "persistence", "transience",
    ),
    "analyses": (
        "ClassicalAssumptionsReport", "InvisibleEffortReport", "TwoOutcomeLinearReport",
        "classical_assumptions_report", "detect_invisible_effort",
        "two_outcome_linear_analysis",
    ),
    "principal": ("GameSolution", "principal_expectation", "solve_game"),
    "oracle": (
        "SimulationResult", "finite_diff_d1", "finite_diff_d2", "grid_argmax",
        "monte_carlo_payoffs", "sample_outcome",
    ),
    "scenario_io": ("ScenarioDocument", "SolverOptions", "emit_report", "parse_scenario"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
