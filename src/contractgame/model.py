"""Data model of the contract game: outcomes, contracts, families, profiles, scenarios.

A scenario bundles everything both parties know before play starts: the
finite outcome set, the admissible effort interval, the effort profile
(outcome distribution as a function of effort), and both parties'
preferences.  Construction enforces the cheap structural invariants;
:func:`scenario_validate` runs the grid-based checks and returns every
violation it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve
from .errors import (
    DimensionError, DomainError, EnumerationCapExceeded, ProbabilityRangeError, ValidationError,
)
from .tables import VALIDATION_GRID_POINTS, effort_tables

__all__ = [
    "TAU_P",
    "EPSILON_INVISIBLE",
    "ENUMERATION_CAP",
    "TIE_BREAK_POLICIES",
    "EffortInterval",
    "Contract",
    "WageGrid",
    "ContractFamily",
    "EffortProfile",
    "AgentPreferences",
    "PrincipalPreferences",
    "Scenario",
    "profile_probs",
    "profile_matrix",
    "contract_issues",
    "scenario_validate",
    "require_finite",
    "ensure_valid",
]

# Probability slack: profile values may stray this far outside [0, 1]
# before validation fails; values inside the slack are clamped.
TAU_P = 1e-9

# Default threshold on the profile's total variation across efforts below
# which the outcome distribution counts as effort-independent.  Raise it to
# hunt for "almost flat" profiles.
EPSILON_INVISIBLE = 1e-9

ENUMERATION_CAP = 10**6  # a contract family's default limit on its size

TIE_BREAK_POLICIES = (
    "principal-favorable",
    "agent-lowest-effort",
    "agent-highest-effort",
)


@dataclass(frozen=True)
class EffortInterval:
    """Closed effort interval [lo, hi] with lo < hi, both finite, and a finite width."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DimensionError("effort interval bounds must be finite")
        if not lo < hi:
            raise DimensionError(
                f"effort interval needs lo < hi; got [{lo}, {hi}]"
            )
        if not math.isfinite(hi - lo):
            raise DimensionError(
                f"effort interval [{lo}, {hi}] is too wide: its width overflows"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def contains(self, e) -> bool:
        if isinstance(e, np.ndarray):
            return bool(np.all(e >= self.lo) and np.all(e <= self.hi))
        return self.lo <= e <= self.hi

    def require(self, e) -> None:
        if not self.contains(e):
            raise DomainError(
                f"effort {e} outside interval [{self.lo}, {self.hi}]"
            )

    def grid(self, points: int) -> np.ndarray:
        """The uniform grid of that many efforts, both ends included."""
        # point i is lo + i * (width / (points - 1)); halving points - 1 doubles
        # the step exactly, so the coarse grid is every other point of the fine
        # one bit for bit, unless the width is below 2^-1010 (a subnormal step)
        return np.linspace(self.lo, self.hi, points)


@dataclass(frozen=True)
class Contract:
    """Wage vector aligned index-by-index with the outcome set."""

    wages: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "wages", tuple(float(w) for w in self.wages))

    def __len__(self) -> int:
        return len(self.wages)

    def __getitem__(self, i: int) -> float:
        return self.wages[i]


@dataclass(frozen=True)
class WageGrid:
    """Arithmetic wage range lo, lo+step, ... capped at hi (inclusive)."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if self.step <= 0.0:
            raise DimensionError(f"wage grid step must be positive, got {self.step}")
        if self.hi < self.lo:
            raise DimensionError(
                f"wage grid needs hi >= lo, got [{self.lo}, {self.hi}]"
            )
        if not math.isfinite((self.hi - self.lo) / self.step):
            raise DimensionError(
                f"wage grid [{self.lo}, {self.hi}] step {self.step} "
                "has too many points to count"
            )

    def count(self) -> int:
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def values(self) -> tuple[float, ...]:
        """The k-th value is the float nearest the decimal lo + k*step.

        lo and step are read as their shortest decimal reprs, so
        WageGrid(0, 6, 0.2) yields 2.4, not 2.4000000000000004.
        """
        # imported here: fractions loads decimal, about 1 ms of every CLI start
        from fractions import Fraction

        lo, step = (Fraction(repr(float(x))) for x in (self.lo, self.step))
        # lo + k*step = (a + k*b) / d, and int / int is correctly rounded, as
        # float() of the reduced fraction is: the same float, without a
        # Fraction per value
        a, b = lo.numerator * step.denominator, step.numerator * lo.denominator
        d = lo.denominator * step.denominator
        return tuple((a + k * b) / d for k in range(self.count()))


@dataclass(frozen=True)
class ContractFamily:
    """Finite candidate set: an explicit list or a per-wage grid product."""

    contracts: tuple[Contract, ...] | None = None
    grids: tuple[WageGrid, ...] | None = None
    cap: int = ENUMERATION_CAP

    def __post_init__(self):
        if self.cap < 1:
            raise DimensionError(f"contract family cap must be at least 1, got {self.cap}")
        if (self.contracts is None) == (self.grids is None):
            raise DimensionError(
                "contract family needs exactly one of: contracts, grids"
            )
        if self.contracts is not None:
            object.__setattr__(self, "contracts", tuple(self.contracts))
            if len(self.contracts) == 0:
                raise DimensionError("contract family must not be empty")
        else:
            object.__setattr__(self, "grids", tuple(self.grids))
            if len(self.grids) == 0:
                raise DimensionError("contract family must not be empty")

    def size(self) -> int:
        if self.contracts is not None:
            return len(self.contracts)
        prod = 1
        for g in self.grids:
            prod *= g.count()
        return prod

    def require_within_cap(self) -> None:
        size = self.size()
        if size > self.cap:
            raise EnumerationCapExceeded(
                f"family enumerates {size} candidates, cap is {self.cap}"
            )

    def __iter__(self):
        self.require_within_cap()
        if self.contracts is not None:
            return iter(self.contracts)
        return (
            Contract(wages)
            for wages in itertools.product(*(g.values() for g in self.grids))
        )


@dataclass(frozen=True)
class EffortProfile:
    """Curves p_1(e)..p_{n-1}(e); the last probability is the complement."""

    components: tuple[Curve, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DimensionError("profile needs at least one component curve")


@dataclass(frozen=True)
class AgentPreferences:
    """Wage utility u, effort cost v, and the acceptance threshold."""

    utility: Curve
    effort_cost: Curve
    reservation_utility: float = 0.0


@dataclass(frozen=True)
class PrincipalPreferences:
    """Utility of the net result (outcome minus wage)."""

    utility: Curve


@dataclass(frozen=True)
class Scenario:
    outcomes: tuple[float, ...]
    interval: EffortInterval
    profile: EffortProfile
    agent: AgentPreferences
    principal: PrincipalPreferences

    def __post_init__(self):
        outcomes = tuple(float(x) for x in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        if len(outcomes) < 2:
            raise DimensionError("need at least 2 outcomes")
        if len(self.profile.components) != len(outcomes) - 1:
            raise DimensionError(
                f"{len(outcomes)} outcomes require "
                f"{len(outcomes) - 1} profile components; "
                f"got {len(self.profile.components)}"
            )

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def check_contract(self, contract: Contract) -> None:
        if len(contract) != self.n_outcomes:
            raise DimensionError(
                f"contract has {len(contract)} wages for "
                f"{self.n_outcomes} outcomes"
            )


def profile_probs(scenario: Scenario, e: float) -> tuple[float, ...]:
    """Outcome distribution at effort e.

    The last probability is one minus the sum of the component curves, so
    the vector sums to one by construction.  Component values may overshoot
    [0, 1] by at most TAU_P (and are clamped back); anything further out
    raises ProbabilityRangeError.
    """
    scenario.interval.require(e)
    clamped = []
    for i, comp in enumerate(scenario.profile.components):
        p = comp.eval(e)
        clamped.append(_clamp_probability(p, i, e))
    rest = 1.0 - math.fsum(clamped)
    clamped.append(_clamp_probability(rest, len(clamped), e))
    # 1 - fsum(...) rounds twice, which can leave the total one ulp off;
    # nudge the complement until the correctly rounded sum is exactly 1
    for _ in range(2):
        residual = 1.0 - math.fsum(clamped)
        if residual == 0.0 or not 0.0 <= clamped[-1] + residual <= 1.0:
            break
        clamped[-1] += residual
    return tuple(clamped)


def _clamp_probability(p: float, index: int, e) -> float:
    if p < -TAU_P or p > 1.0 + TAU_P:
        raise ProbabilityRangeError(
            f"profile component {index} = {p} at effort {e} "
            f"outside [0, 1] beyond tolerance {TAU_P}"
        )
    return min(max(p, 0.0), 1.0)


def profile_matrix(scenario: Scenario, e: np.ndarray) -> np.ndarray:
    """Vectorized profile: row per effort value, column per outcome."""
    scenario.interval.require(e)
    e = np.asarray(e, dtype=float)
    n = scenario.n_outcomes
    out = np.empty((e.size, n))
    for i, comp in enumerate(scenario.profile.components):
        out[:, i] = comp.eval(e)
    out[:, n - 1] = 1.0 - out[:, : n - 1].sum(axis=1)
    bad = (out < -TAU_P) | (out > 1.0 + TAU_P)
    if np.any(bad):
        rows, cols = np.nonzero(bad)
        raise ProbabilityRangeError(
            f"profile component {cols[0]} = {out[rows[0], cols[0]]} at "
            f"effort {e[rows[0]]} outside [0, 1] beyond tolerance {TAU_P}"
        )
    np.clip(out, 0.0, 1.0, out=out)
    return out


def scenario_validate(
    scenario: Scenario, contracts: tuple[Contract, ...] = ()
) -> list[Exception]:
    """Grid-check a scenario; returns every violation found (empty = valid).

    Profile components and the effort cost are sampled on a uniform grid
    over the effort interval; wage utility and principal utility are
    checked at the wages / net results induced by the given contracts.
    """
    issues: list[Exception] = []
    tables = effort_tables(scenario)
    grid = tables.grid(VALIDATION_GRID_POINTS)
    n = scenario.n_outcomes

    total = np.zeros_like(grid)
    complement_ok = True
    # overflow to inf/nan is reported as an issue, not as a numpy warning
    with np.errstate(all="ignore"):
        for i, comp in enumerate(scenario.profile.components):
            try:
                vals = tables.array(comp, VALIDATION_GRID_POINTS)
            except DomainError as err:
                issues.append(DomainError(f"profile component {i}: {err}"))
                complement_ok = False
                continue
            issues.extend(_range_issues(vals, grid, i))
            total += vals
        if complement_ok:
            issues.extend(_range_issues(1.0 - total, grid, n - 1))
        cost = scenario.agent.effort_cost
        issues.extend(_curve_issues(
            lambda _: tables.array(cost, VALIDATION_GRID_POINTS), grid, "effort cost"
        ))

    for ci, contract in enumerate(contracts):
        issues.extend(contract_issues(scenario, contract, f"contract {ci}"))
    return issues


def contract_issues(scenario: Scenario, contract: Contract, name: str) -> list[Exception]:
    """Check one contract against a scenario; returns every violation found.

    The contract needs one finite wage per outcome, and both u(w) and
    B(x - w) must be defined and finite at each of them.
    """
    n = scenario.n_outcomes
    if len(contract) != n:
        return [DimensionError(f"{name} has {len(contract)} wages for {n} outcomes")]
    issues: list[Exception] = []
    for wi, wage in enumerate(contract.wages):
        if not math.isfinite(wage):
            issues.append(DomainError(f"{name} w{wi+1}: non-finite wage {wage}"))
            continue
        issues.extend(
            _curve_issues(
                scenario.agent.utility.eval, wage, f"wage utility at {name} w{wi+1}"
            )
        )
        issues.extend(
            _curve_issues(
                scenario.principal.utility.eval, scenario.outcomes[wi] - wage,
                f"principal utility at {name} net result x{wi+1} - w{wi+1}",
            )
        )
    return issues


def require_finite(values: np.ndarray, points: np.ndarray, what: str) -> np.ndarray:
    """Return values, or raise DomainError at the first one that is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainError(f"{what} is not finite at {points[k]}: {values[k]}")
    return values


def _curve_issues(evaluate, t, what: str) -> list[Exception]:
    """A DomainError where evaluate(t), a curve's values at t (a point or an
    effort grid), raises or is not finite; empty when it is fine."""
    try:
        vals = evaluate(t)
    except DomainError as err:
        return [DomainError(f"{what}: {err}")]
    if not isinstance(t, np.ndarray):
        return [] if math.isfinite(vals) else [DomainError(f"{what}: non-finite value {vals}")]
    finite = np.isfinite(vals)
    if finite.all():
        return []
    k = int(np.argmin(finite))
    return [DomainError(f"{what}: non-finite value {vals[k]} at effort {t[k]}")]


def _range_issues(vals, grid, index):
    bad = ~((vals >= -TAU_P) & (vals <= 1.0 + TAU_P))  # nan is out of range too
    if not np.any(bad):
        return []
    dev = np.where(vals < 0.0, -vals, vals - 1.0)
    worst = int(np.argmax(np.where(bad, dev, -np.inf)))
    return [
        ProbabilityRangeError(
            f"profile component {index} = {vals[worst]} at effort "
            f"{grid[worst]} outside [0, 1] beyond tolerance {TAU_P} "
            f"({int(bad.sum())} grid points affected)"
        )
    ]


def ensure_valid(
    scenario: Scenario, contracts: tuple[Contract, ...] = ()
) -> Scenario:
    """Raise ValidationError if the scenario fails any grid check."""
    issues = scenario_validate(scenario, contracts)
    if issues:
        raise ValidationError(issues)
    return scenario
