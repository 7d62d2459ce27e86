"""Time solve_game on contract families of 10^2 to 10^6 contracts, each in a fresh process.

Run from the repository root, once per checkout of the program:

    PYTHONPATH=src python tests/family_sizes.py [CASE ...]

With no CASE every case runs, in the order below.  Each case runs in a
child process of its own, started with this interpreter and environment:
the child imports the program, solves a small warm-up family on the
case's scenario (so imports and the scenario's effort tables are paid
before the clock starts), then solves the case's family once.  The
parent prints the child's one JSON line:

    {"case": ..., "contracts": ..., "seconds": ..., "rss_mb": ...}

seconds is the solve's perf_counter time, and rss_mb the growth of the
child's peak RSS (ru_maxrss) over the solve, in MiB.  To check an older
checkout, point PYTHONPATH at its src.  The cases:

- ``fixture-1e2`` .. ``fixture-1e6``: the reference fixture
  (perfbench/gen.fixture_scenario) on wage grids of step 0.01 from 0:
  10 x 10, 100 x 10, 100 x 100, 1000 x 100 and 1000 x 1000 wages, the
  last (0..9.99 step .01)^2;
- ``all-flat-65536``: the fixture economics with u = w + 1e12 and
  reservation -2e12, on (0..25.5 step 0.1)^2: every contract's
  expectation is flat within its tie tolerance, so the screen leaves
  all 65,536 of them to one-by-one solves, which all accept;
- ``listed-1e5``: fixture-1e5's grid written out as a list of its
  100,000 Contracts, built before the clock starts: a listed family of
  two screen blocks.

pytest does not collect this file.  All cases together take under half a
minute on a 2-vCPU host.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# name -> (grids, all-flat economics, family listed)
CASES = {
    "fixture-1e2": (((0.0, 0.09, 0.01), (0.0, 0.09, 0.01)), False, False),
    "fixture-1e3": (((0.0, 0.99, 0.01), (0.0, 0.09, 0.01)), False, False),
    "fixture-1e4": (((0.0, 0.99, 0.01), (0.0, 0.99, 0.01)), False, False),
    "fixture-1e5": (((0.0, 9.99, 0.01), (0.0, 0.99, 0.01)), False, False),
    "fixture-1e6": (((0.0, 9.99, 0.01), (0.0, 9.99, 0.01)), False, False),
    "all-flat-65536": (((0.0, 25.5, 0.1), (0.0, 25.5, 0.1)), True, False),
    "listed-1e5": (((0.0, 9.99, 0.01), (0.0, 0.99, 0.01)), False, True),
}
WARM_UP = ((0.0, 0.02, 0.01), (0.0, 0.02, 0.01))


def run_case(name: str) -> dict:
    """Solve the case's family after the warm-up; its size, time and peak-RSS growth."""
    import gen
    from contractgame import ContractFamily, Polynomial, WageGrid, solve_game

    grids, flat, listed = CASES[name]
    scenario = gen.fixture_scenario()
    if flat:
        scenario = gen.scenario(
            scenario.outcomes, 0.0, 1.0, scenario.profile.components,
            Polynomial((1e12, 1.0)), scenario.agent.effort_cost, -2e12,
        )
    solve_game(scenario, ContractFamily(grids=tuple(WageGrid(*g) for g in WARM_UP)))
    family = ContractFamily(grids=tuple(WageGrid(*g) for g in grids))
    if listed:
        family = ContractFamily(contracts=tuple(family))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    solve_game(scenario, family)
    seconds = time.perf_counter() - start
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    return {
        "case": name, "contracts": family.size(), "seconds": round(seconds, 4),
        "rss_mb": round(grown / 1024.0, 2),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(run_case(argv[1])))
        return 0
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"unknown case {unknown[0]!r}; choose from {', '.join(CASES)}", file=sys.stderr)
        return 2
    for name in argv or CASES:
        child = subprocess.run(
            [sys.executable, __file__, "--child", name], capture_output=True, text=True
        )
        if child.returncode:
            sys.stderr.write(child.stderr)
            return child.returncode
        print(child.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
