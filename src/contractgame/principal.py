"""Principal side: expected payoff and exhaustive backward induction.

The agent's move is solved exactly (per contract) by the agent solver; the
principal's move is completed by enumerating a finite contract family and
keeping the candidate with the best expected payoff among those the agent
accepts.  Ties between the agent's optimal efforts are settled by an
explicit policy, ties between contracts by the lexicographically smallest
wage vector, so the result is deterministic regardless of evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .agent import BestResponse, EffortTables, LinearPayoff
from .errors import DimensionError, EnumerationCapExceeded
from .model import Contract, Scenario

__all__ = [
    "ENUMERATION_CAP",
    "TIE_BREAK_POLICIES",
    "WageGrid",
    "ContractFamily",
    "GameSolution",
    "principal_expectation",
    "solve_game",
]

ENUMERATION_CAP = 10**6

TIE_BREAK_POLICIES = (
    "principal-favorable",
    "agent-lowest-effort",
    "agent-highest-effort",
)


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
        return tuple(float(lo + k * step) for k in range(self.count()))


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

    def __iter__(self):
        size = self.size()
        if size > self.cap:
            raise EnumerationCapExceeded(
                f"family enumerates {size} candidates, cap is {self.cap}"
            )
        if self.contracts is not None:
            return iter(self.contracts)
        return (
            Contract(wages)
            for wages in itertools.product(*(g.values() for g in self.grids))
        )


@dataclass(frozen=True)
class GameSolution:
    all_rejected: bool
    contract: Contract | None
    effort: float | None
    principal_payoff: float | None
    agent_payoff: float | None
    tie_break: str
    best_response: BestResponse | None


def principal_expectation(
    scenario: Scenario, contract: Contract, e: float
) -> float:
    """Expected principal utility sum_i p_i(e) B(x_i - w_i)."""
    scenario.interval.require(e)
    return LinearPayoff.principal(scenario, contract).value(e)


def _select_effort(
    response: BestResponse, payoff: LinearPayoff, policy: str
) -> float:
    efforts = response.efforts()
    if policy == "agent-lowest-effort":
        return efforts[0]
    if policy == "agent-highest-effort":
        return efforts[-1]
    if policy == "principal-favorable":
        best_e = efforts[0]
        best_p = payoff.value(best_e)
        for e in efforts[1:]:
            p = payoff.value(e)
            if p > best_p:
                best_e, best_p = e, p
        return best_e
    raise ValueError(f"unknown tie-break policy {policy!r}")


def solve_game(
    scenario: Scenario,
    family: ContractFamily,
    tie_break: str = "principal-favorable",
) -> GameSolution:
    """Backward induction against a finite contract family.

    For every candidate the agent's problem is solved first; rejected
    contracts are discarded, the rest are scored by the principal's
    expectation at the tie-break effort.  The agent's problems share one
    EffortTables, so the grids, the curve values on them and the slope
    roots of each utility-delta row are computed once; every best response
    equals agent_best_response(scenario, contract).
    """
    if tie_break not in TIE_BREAK_POLICIES:
        raise ValueError(
            f"unknown tie-break policy {tie_break!r}; "
            f"choose one of {TIE_BREAK_POLICIES}"
        )
    tables = EffortTables(scenario)
    best: tuple[float, tuple[float, ...]] | None = None
    chosen: GameSolution | None = None
    for contract in family:
        response = tables.best_response(contract)
        if not response.accepted:
            continue
        payoff = LinearPayoff.principal(scenario, contract)
        effort = _select_effort(response, payoff, tie_break)
        value = payoff.value(effort)
        key = (-value, contract.wages)
        if best is None or key < best:
            best = key
            chosen = GameSolution(
                all_rejected=False,
                contract=contract,
                effort=effort,
                principal_payoff=value,
                agent_payoff=response.optimal_expectation,
                tie_break=tie_break,
                best_response=response,
            )
    if chosen is None:
        return GameSolution(
            all_rejected=True,
            contract=None,
            effort=None,
            principal_payoff=None,
            agent_payoff=None,
            tie_break=tie_break,
            best_response=None,
        )
    return chosen
