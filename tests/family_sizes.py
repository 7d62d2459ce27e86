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
checkout, point PYTHONPATH at its src, or compare two in one run:

    python tests/family_sizes.py --compare OLD_SRC NEW_SRC [--pairs K] [CASE ...]

runs each case K times (default 5) per src, in fresh processes that
alternate between the two (old first in even pairs, new first in odd
ones), and prints one JSON line per case: per side the median and range
(least, largest) of seconds and rss_mb, and in how many pairs the new
side was faster.  Every line, in both modes, records the environment's
MALLOC_* variables under "malloc", since glibc's allocator thresholds
move the seconds as well as the work does.  The cases:

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
  two screen blocks;
- ``calls-fixture-1e2``: fixture-1e2 solved 200 times, each on a fresh
  fixture scenario of equal curves, so each call starts with the last
  call's effort tables;
- ``calls-nonlinear-125``: the nonlinear 3-outcome warm-up family of
  perfbench/gen (125 contracts) of seeds 0..199, each call on curves of
  its own.

The two ``calls-*`` cases measure what a call costs whatever its size:
their scenarios and families are built before the clock starts, and
their lines add ``calls`` and ``ms_per_call``.

pytest does not collect this file.  All cases together take under half a
minute on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
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
CALLS = ("calls-fixture-1e2", "calls-nonlinear-125")  # each of 200 solves


def run_calls(name: str) -> dict:
    """Solve the case's 200 families one after another, after a warm-up solve."""
    import gen
    from contractgame import ContractFamily, WageGrid, solve_game

    def grids(family):
        return ContractFamily(grids=tuple(WageGrid(*g) for g in family))

    calls = 200
    if name == "calls-fixture-1e2":
        warm_up = (gen.fixture_scenario(), grids(CASES["fixture-1e2"][0]))
        games = [(gen.fixture_scenario(), grids(CASES["fixture-1e2"][0])) for _ in range(calls)]
    else:
        warm_up, *games = ((f.scenario, grids(f.grids)) for f in
                           (gen.warmup_families(seed)[1] for seed in (calls, *range(calls))))
    solve_game(*warm_up)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    for scenario, family in games:
        solve_game(scenario, family)
    seconds = time.perf_counter() - start
    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    return {
        "case": name, "contracts": games[0][1].size(), "calls": calls, "seconds": round(seconds, 4),
        "ms_per_call": round(1e3 * seconds / calls, 4), "rss_mb": round(grown / 1024.0, 2),
    }


def run_case(name: str) -> dict:
    """Solve the case's family after the warm-up; its size, time and peak-RSS growth."""
    if name in CALLS:
        return run_calls(name)
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


def malloc_settings() -> dict:
    """The environment's MALLOC_* variables (glibc's allocator tunables)."""
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")}


def child(name: str, src: str | None = None) -> dict:
    """run_case(name) in a fresh process, with PYTHONPATH set to src if given."""
    env = dict(os.environ, PYTHONPATH=src) if src else None
    proc = subprocess.run(
        [sys.executable, __file__, "--child", name], capture_output=True, text=True, env=env
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(name: str, sources: list[str], pairs: int) -> dict:
    """Alternating fresh-process runs of the case on the old and new src."""
    runs = [[], []]
    for k in range(pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            runs[side].append(child(name, sources[side]))
    line = {"case": name, "contracts": runs[0][0]["contracts"], "pairs": pairs}
    for side, key in enumerate(("old", "new")):
        line[key] = {
            field: {"median": statistics.median(r[field] for r in runs[side]),
                    "range": [min(r[field] for r in runs[side]), max(r[field] for r in runs[side])]}
            for field in ("seconds", "ms_per_call", "rss_mb") if field in runs[side][0]
        }
    line["new_faster_pairs"] = sum(n["seconds"] < o["seconds"] for o, n in zip(*runs))
    return line


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(run_case(argv[1])))
        return 0
    sources, pairs = None, 5
    if argv[:1] == ["--compare"]:
        sources, argv = argv[1:3], argv[3:]
        if argv[:1] == ["--pairs"]:
            pairs, argv = int(argv[1]), argv[2:]
    unknown = [name for name in argv if name not in CASES and name not in CALLS]
    if unknown or (sources is not None and (len(sources) < 2 or pairs < 1)):
        print(f"unknown case {unknown[0]!r}; choose from {', '.join([*CASES, *CALLS])}" if unknown
              else "usage: --compare OLD_SRC NEW_SRC [--pairs K] [CASE ...]", file=sys.stderr)
        return 2
    for name in argv or [*CASES, *CALLS]:
        line = child(name) if sources is None else compare(name, sources, pairs)
        print(json.dumps({**line, "malloc": malloc_settings()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
