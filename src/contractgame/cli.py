"""Command-line driver.

Exit codes: 0 success, 1 parse/validation/solver failure or out of memory,
2 usage error.  Reports go to stdout (or the file given by --out); error
text goes to stderr, one line.  Each command imports its solver module
when it runs, so a CLI process loads only the modules its command uses.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import ContractGameError, NotTwoOutcomeLinearError, ParseError, ValidationError
from .model import TIE_BREAK_POLICIES, Contract, contract_issues, require_finite
from .scenario_io import (
    ScenarioDocument,
    SweepTable,
    clip,
    emit_report,
    parse_scenario,
    read_json,
    result_to_dict,
)

__all__ = ["build_parser", "run_command", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractgame",
        description="Solve principal-agent contract games from scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, contract=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="scenario document (JSON)")
        if contract:
            p.add_argument(
                "--contract",
                default="0",
                help="index into the document's contracts, or an inline "
                'wage vector like "[4, 0]" (default: 0)',
            )
        return p

    add("validate", "check a scenario document and print a report")
    add("solve-agent", "agent best response for one contract", contract=True)
    add("classify-risk", "contract-dependent risk posture", contract=True)
    p = add("analyze", "run all structural analyzers", contract=True)
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="override the flat-profile detection threshold",
    )
    p = add("solve-game", "backward induction over the contract family")
    p.add_argument(
        "--tie-break",
        choices=TIE_BREAK_POLICIES,
        default=None,
        help="effort tie-break policy (default from the document)",
    )
    p = add("sweep", "tabulate expectation/motivation/persistence", contract=True)
    p.add_argument("--points", type=int, required=True, help="grid size")
    p.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p = add("simulate", "Monte Carlo payoffs at fixed effort", contract=True)
    p.add_argument("--effort", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=None, help="rng seed (default from document)")
    return parser


def _resolve_contract(doc: ScenarioDocument, spec: str) -> Contract:
    text = spec.strip()
    quoted = clip(f"{spec!r}")
    if text.startswith("["):
        # a huge integer becomes inf, which contract_issues reports
        wages = read_json(f"bad inline contract {quoted}", text, parse_int=float)
        if not isinstance(wages, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in wages
        ):
            raise ContractGameError(f"bad inline contract {quoted}: expected numbers")
        contract = Contract(tuple(float(w) for w in wages))
        issues = contract_issues(doc.scenario, contract, f"contract {clip(text)}")
        if issues:
            raise ValidationError(issues)
        return contract
    try:
        index = int(text)
    except ValueError as err:
        raise ContractGameError(
            f"--contract must be an index or an inline vector, got {quoted}"
        ) from err
    if not 0 <= index < len(doc.contracts):
        raise ContractGameError(
            f"contract index {index} out of range; document has "
            f"{len(doc.contracts)} contract(s)"
        )
    # parse_scenario has checked the document's contracts
    return doc.contracts[index]


def _validate(path: str) -> tuple[dict, int]:
    """validate's report and exit code: a document that fails is a report."""
    try:
        parse_scenario(path)
    except (ValidationError, ParseError) as err:
        issues = err.issues if isinstance(err, ValidationError) else [err]
        report = {
            "valid": False,
            "issues": [{"kind": type(i).__name__, "message": str(i)} for i in issues],
        }
        return report, 1
    return {"valid": True, "issues": []}, 0


# Each other command is a handler (ScenarioDocument, the resolved --contract
# or None, args) -> report; run_command parses, resolves and writes around it.

def _solve_agent(doc, contract, args):
    from .agent import agent_best_response, classify_risk

    out = result_to_dict(agent_best_response(doc.scenario, contract))
    out["risk"] = result_to_dict(classify_risk(doc.scenario, contract))
    return out


def _classify_risk(doc, contract, args):
    from .agent import classify_risk

    return classify_risk(doc.scenario, contract)


def _analyze(doc, contract, args):
    from .analyses import (
        classical_assumptions_report, detect_invisible_effort, two_outcome_linear_analysis,
    )

    epsilon = args.epsilon if args.epsilon is not None else doc.options.epsilon_invisible
    if not math.isfinite(epsilon):
        raise ContractGameError("--epsilon must be a finite number")
    invisible = detect_invisible_effort(doc.scenario, epsilon)
    try:
        report = two_outcome_linear_analysis(doc.scenario, contract)
    except NotTwoOutcomeLinearError:
        linear = None
    else:
        if report.reduces_to_invisible:
            # the flat-profile report under the threshold in force
            report = replace(report, invisible=invisible)
        linear = result_to_dict(report)
    classical = classical_assumptions_report(
        doc.scenario, (min(contract.wages), max(contract.wages))
    )
    return {
        "invisible_effort": result_to_dict(invisible),
        "two_outcome_linear": linear,
        "classical_assumptions": result_to_dict(classical),
    }


def _solve_game(doc, contract, args):
    from .principal import solve_game

    if doc.contract_family is None:
        raise ContractGameError("document has no contract_family to search")
    tie_break = args.tie_break if args.tie_break is not None else doc.options.tie_break
    return solve_game(doc.scenario, doc.contract_family, tie_break=tie_break)


def _sweep(doc, contract, args):
    from .agent import agent_payoff_functions

    if args.points < 2:
        raise ContractGameError("--points must be at least 2")
    try:
        grid = doc.scenario.interval.grid(args.points)
    except (MemoryError, ValueError) as err:  # ValueError: beyond numpy's largest array
        raise ContractGameError(f"--points {args.points} is too large: {err}") from err
    names = ("expectation", "motivation", "persistence")
    ev, mv, pv = (
        require_finite(np.asarray(fn(grid), dtype=float), grid, name)
        for fn, name in zip(agent_payoff_functions(doc.scenario, contract), names)
    )
    return SweepTable(
        columns=("e", *names),
        rows=tuple(
            (float(e), float(a), float(b), float(c))
            for e, a, b, c in zip(grid, ev, mv, pv)
        ),
    )


def _simulate(doc, contract, args):
    from .oracle import monte_carlo_payoffs

    if args.n < 1:
        raise ContractGameError("--n must be at least 1")
    if args.seed is not None and args.seed < 0:
        raise ContractGameError("--seed must be non-negative")
    seed = args.seed if args.seed is not None else doc.options.seed
    return monte_carlo_payoffs(doc.scenario, contract, args.effort, args.n, seed)


_HANDLERS = {
    "solve-agent": _solve_agent,
    "classify-risk": _classify_risk,
    "analyze": _analyze,
    "solve-game": _solve_game,
    "sweep": _sweep,
    "simulate": _simulate,
}


def run_command(argv) -> int:
    """Run one command: parse the document, resolve --contract where the
    command takes it, run the command and write its report.  Any
    ContractGameError, and running out of memory, is one error line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else 2
    try:
        # every reported array is checked for finiteness, so numpy's
        # overflow warnings would only repeat the error on stderr
        with np.errstate(all="ignore"):
            if args.command == "validate":
                report, code = _validate(args.file)
            else:
                doc = parse_scenario(args.file)
                contract = _resolve_contract(doc, args.contract) if "contract" in args else None
                report, code = _HANDLERS[args.command](doc, contract, args), 0
            emit_report(report, destination=getattr(args, "out", None))
            return code
    except ContractGameError as err:
        print(f"error: {err}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
    return 1


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head -1`); the interpreter
        # flushes stdout again at exit, so point it at devnull first
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
