"""Print one line per solver result over fixed corpora, to compare two versions.

Run from the repository root, once per checkout of the program:

    PYTHONPATH=src python tests/output_digest.py > digest.txt

and compare the two files (below).  To check an older checkout with these
corpora, point PYTHONPATH at its src.  A line is "<set> <key>", a tab and
the result: the repr of what the call returns, or the type and message of
what it raises.  The sets:

- ``agent``: agent_best_response, and the invisible-effort and two-outcome
  analyzers where they apply, on perfbench/gen.agent_pairs of seeds
  4200-4202, 3,000 pairs each;
- ``corpus``: tests/scenario_gen.game_corpus(120) of seeds 11 and 12: each
  contract of each family alone, then solve_game under each policy;
- ``families``: solve_game on perfbench/gen.game_families of seeds 1 and 2;
- ``principal``: the screen, batching and error families of
  tests/principal_cases.py: each contract alone, then solve_game under
  each policy;
- ``fuzz``: the mutated documents and raw texts of tests/test_fuzz.py
  through its seven commands: the exit code, and the length and SHA-256
  of the output;
- ``cold``: tests/scenario_gen.game_corpus(20) of seed 13, each written as
  a document with its family's middle contract, through the same seven
  commands, each a fresh ``python -m contractgame.cli`` process: the exit
  code and the SHA-256 of stdout and of stderr;
- ``cold error``: the same, for error inputs made from the reference
  fixture (COLD_ERRORS) through each command.

pytest does not collect this file.  It runs for about a minute.

To compare two digests:

    python tests/output_digest.py --compare OLD NEW

pairs the lines by key (the k-th line of a key with the k-th of the same
key in the other file), or by position when a file has a line without a
tab, as digests written before the tab had.  It prints, per set, how many
pairs differ and the first that does, and exits 1 on any difference or
when the files differ in length.  Each differing pair is sorted into one
class, and each class's count is printed per set:

- *last-bit*: the same text once every number in it (a decimal literal
  not inside a word, such as a hash) is compared within max(1e-12, 1e-9 *
  its magnitude);
- *other*: everything else, split further into
  - *structural*: a key found in one file only, or a pair whose error
    type, exit code, ``accepted``, ``all_rejected``, winner ``contract``
    or number of ``Maximizer(`` entries differs;
  - *worse E\** and *better E\**: the ``principal_payoff`` of a game
    line, else the first ``optimal_expectation`` of an agent line, is
    lower or higher in NEW;
  - *other*: the rest, such as a changed hash, effort or maximizer kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SETS = ("agent", "corpus", "families", "principal", "fuzz", "cold", "cold error")

NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?!\w|\.\d)")


def last_bit(a: str, b: str) -> bool:
    """Whether two lines differ only in numbers within max(1e-12, 1e-9 |x|)."""
    if NUMBER.split(a) != NUMBER.split(b):
        return False
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    return all(
        abs(float(x) - float(y)) <= max(1e-12, 1e-9 * max(abs(float(x)), abs(float(y))))
        for x, y in zip(xs, ys)
    )


# what a pair must share not to be structural: each is a list of the
# pattern's matches, or for Maximizer( a count
ERROR = re.compile(r"(?:^| )([A-Z]\w*): ")
STRUCTURE = tuple(
    re.compile(pattern) for pattern in (
        r"(?:^| )exit (\S+)", r"\baccepted=(\w+)", r"\ball_rejected=(\w+)",
        r"\bcontract=(Contract\(wages=\([^)]*\)\)|None)",
    )
)
PAYOFF = re.compile(r"\bprincipal_payoff=([^,)]+)")
EXPECTATION = re.compile(r"\boptimal_expectation=([^,)]+)")


def set_name(line: str) -> str:
    return "cold error" if line.startswith("cold error ") else line.split(" ", 1)[0]


def structure(result: str) -> tuple:
    error = ERROR.search(result)
    return (
        error and error.group(1), *(p.findall(result) for p in STRUCTURE),
        result.count("Maximizer("),
    )


def value(result: str) -> float:
    """The principal_payoff of a game line, else the first optimal_expectation; NaN without one."""
    found = PAYOFF.search(result) or EXPECTATION.search(result)
    text = found.group(1) if found else "nan"
    return math.nan if text == "None" else float(text)


def classify(a: str | None, b: str | None) -> str:
    """The class of a differing pair of results; None for a missing one."""
    if a is not None and b is not None and last_bit(a, b):
        return "last-bit"
    if a is None or b is None or structure(a) != structure(b):
        return "structural"
    old, new = value(a), value(b)
    if new < old:
        return "worse E*"
    if new > old:
        return "better E*"
    return "other"


def pairs(old: list[str], new: list[str]):
    """(set, old result, new result) per key, None where a file lacks it;
    by position, whole lines, unless every line has a tab."""
    if not all("\t" in line for line in (*old, *new)):
        yield from ((set_name(a), a, b) for a, b in zip(old, new))
        return
    sides = []
    for lines in (old, new):
        seen, side = Counter(), {}
        for line in lines:
            key, result = line.split("\t", 1)
            seen[key] += 1
            side[key, seen[key]] = result
        sides.append(side)
    for key in dict.fromkeys([*sides[0], *sides[1]]):
        yield set_name(key[0]), sides[0].get(key), sides[1].get(key)


def compare(old_path: str, new_path: str) -> int:
    """Print the differing pairs of two digests per set with the count of
    each class; 1 if any pair differs or the lengths do, else 0."""
    old, new = (Path(p).read_text(encoding="utf-8").splitlines() for p in (old_path, new_path))
    lines, classes, first = Counter(), Counter(), {}
    for name, a, b in pairs(old, new):
        lines[name] += 1
        if a != b:
            classes[name, classify(a, b)] += 1
            first.setdefault(name, (a, b))
    for name in SETS:
        bits = classes[name, "last-bit"]
        split = [classes[name, c] for c in ("structural", "worse E*", "better E*", "other")]
        print(
            f"{name}: {bits + sum(split)} of {lines[name]} lines differ"
            f" ({bits} last-bit, {sum(split)} other)"
        )
        if sum(split):
            print("  other: {} structural, {} worse E*, {} better E*, {} other".format(*split))
        if name in first:
            print(f"  old: {first[name][0]}\n  new: {first[name][1]}")
    if len(old) != len(new):
        print(f"length: {len(old)} lines old, {len(new)} new")
    return int(bool(classes) or len(old) != len(new))


if __name__ == "__main__" and sys.argv[1:2] == ["--compare"]:
    # before the imports below, so that no PYTHONPATH is needed
    sys.exit(compare(*sys.argv[2:]))

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "perfbench")]

import gen  # noqa: E402  (perfbench/gen.py)
import principal_cases  # noqa: E402
import test_fuzz  # noqa: E402
from scenario_gen import game_corpus  # noqa: E402

from contractgame import (  # noqa: E402
    ContractFamily,
    WageGrid,
    agent_best_response,
    detect_invisible_effort,
    solve_game,
    two_outcome_linear_analysis,
)
from contractgame.cli import run_command  # noqa: E402
from contractgame.scenario_io import (  # noqa: E402
    ScenarioDocument,
    SolverOptions,
    document_to_dict,
)
from contractgame.principal import TIE_BREAK_POLICIES  # noqa: E402


def result(call) -> str:
    try:
        return repr(call())
    except Exception as err:  # noqa: BLE001 - an error is a result too
        return f"{type(err).__name__}: {err}"


def agent_lines():
    for seed in (4200, 4201, 4202):
        for k, pair in enumerate(gen.agent_pairs(seed, 3000)):
            s, c = pair.scenario, pair.contract
            yield f"agent {seed}/{k}", result(lambda: agent_best_response(s, c))
            yield f"agent {seed}/{k} invisible", result(lambda: detect_invisible_effort(s))
            if pair.two_outcome_linear:
                yield f"agent {seed}/{k} two-outcome", result(
                    lambda: two_outcome_linear_analysis(s, c)
                )


def family_lines(name: str, scenario, family):
    """Each contract of the family alone, then solve_game under each policy."""
    for k, contract in enumerate(family):
        yield f"{name} contract {k}", result(lambda: agent_best_response(scenario, contract))
    for policy in TIE_BREAK_POLICIES:
        yield f"{name} {policy}", result(lambda: solve_game(scenario, family, policy))


def corpus_lines():
    for seed in (11, 12):
        for k, (kind, scenario, family) in enumerate(game_corpus(120, seed)):
            yield from family_lines(f"corpus {seed}/{k} {kind}", scenario, family)


def families_lines():
    for seed in (1, 2):
        for k, fam in enumerate(gen.game_families(seed, 60_000, 1)):
            grids = ContractFamily(grids=tuple(WageGrid(*g) for g in fam.grids))
            yield f"families {seed}/{k}", result(lambda: solve_game(fam.scenario, grids))


def principal_lines():
    named = {
        **{f"screen {n}": make for n, make in principal_cases.SCREEN_FAMILIES.items()},
        **{f"batching {n}": make for n, make in principal_cases.BATCHING_FAMILIES.items()},
        **{f"error {n}": make for n, make in principal_cases.ERROR_CASES.items()},
    }
    for name in sorted(named):
        scenario, family = named[name]()
        yield from family_lines(f"principal {name}", scenario, family)


def fuzz_lines():
    def run(key: str, path: Path):
        for command in test_fuzz.COMMANDS:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = result(lambda: run_command([command[0], str(path), *command[1:]]))
            # the same bytes wherever the temporary directory is
            out = sink.getvalue().replace(str(path), "doc.json").encode("utf-8", "backslashreplace")
            yield f"fuzz {key} {command[0]}", (
                f"exit {code} {len(out)} {hashlib.sha256(out).hexdigest()}"
            )

    base = json.loads(test_fuzz.FIXTURE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        rng = random.Random(test_fuzz.SEED)
        for k in range(test_fuzz.DOCUMENTS):
            path.write_text(json.dumps(test_fuzz.mutate(base, rng)), encoding="utf-8")
            yield from run(f"document {k}", path)
        rng = random.Random(test_fuzz.SEED)
        for k, text in enumerate(test_fuzz.raw_mutations(test_fuzz.FIXTURE.read_bytes(), rng)):
            path.write_bytes(text)
            yield from run(f"raw {k}", path)


def cold_run(command, path: str, flags=()) -> str:
    """One command on the document at path, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-m", "contractgame.cli", command[0], path, *command[1:], *flags],
        capture_output=True, timeout=60,
    )
    out, err = (hashlib.sha256(b.replace(path.encode(), b"doc.json")).hexdigest()
                for b in (proc.stdout, proc.stderr))
    return f"exit {proc.returncode} {out} {err}"


def cold_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for k, (kind, scenario, family) in enumerate(game_corpus(20, 13)):
            contracts = tuple(family)
            doc = ScenarioDocument(
                scenario, (contracts[len(contracts) // 2],), family, SolverOptions()
            )
            path = os.path.join(tmp, f"doc{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document_to_dict(doc), handle)
            for command in test_fuzz.COMMANDS:
                yield f"cold {k} {kind} {command[0]}", cold_run(command, path)


# a bad value for a flag each command takes, or a flag it does not take;
# the last of a repeated flag wins
BAD_FLAGS = {
    "validate": ["--points", "5"],
    "solve-agent": ["--points", "5"],
    "classify-risk": ["--points", "5"],
    "analyze": ["--epsilon", "nan"],
    "solve-game": ["--tie-break", "none"],
    "sweep": ["--points", "1"],
    "simulate": ["--n", "0"],
}

# (name, the fixture's text -> the document's text, extra flags or None for
# the command's BAD_FLAGS); 101 nested arrays under the top object pass the
# decoder's nesting limit of 100
COLD_ERRORS = (
    ("truncated", lambda text: text[: len(text) // 2], ()),
    ("bad-utf8", lambda text: text.replace(b'"schema"', b'"sch\xffema"'), ()),
    ("nested-101", lambda text: text.replace(b"[10.0, 2.0]", b"[" * 101 + b"]" * 101), ()),
    ("contract-99", lambda text: text, ("--contract", "99")),
    ("bad-flag", lambda text: text, None),
)


def cold_error_lines():
    fixture = test_fuzz.FIXTURE.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for name, edit, flags in COLD_ERRORS:
            with open(path, "wb") as handle:
                handle.write(edit(fixture))
            for command in test_fuzz.COMMANDS:
                extra = BAD_FLAGS[command[0]] if flags is None else flags
                yield f"cold error {name} {command[0]}", cold_run(command, path, extra)


def main() -> None:
    for lines in (
        agent_lines, corpus_lines, families_lines, principal_lines, fuzz_lines, cold_lines,
        cold_error_lines,
    ):
        for key, line in lines():
            print(f"{key}\t{line}")


if __name__ == "__main__":
    main()
