"""Mutation fuzz of the CLI: every malformed document is an exit code, never a crash.

Mutated copies of the reference fixture go through all seven commands in
process: parsed copies (a key dropped, a leaf swapped for an awkward value,
a number scaled) and raw-text copies (a truncation, a flipped bit, invalid
UTF-8, a long digit run, deep nesting).  Each run must return 0, 1 or 2; an
exception escaping ``run_command`` is a failure.
"""

import contextlib
import copy
import io
import json
import random
import re
from pathlib import Path

from contractgame.cli import run_command

FIXTURE = Path(__file__).parent / "fixtures" / "scenario_r.json"
DOCUMENTS = 150
SEED = 20111
RAW_TEXTS = 30  # raw-text copies of each kind but deep nesting
REPLACEMENTS = (0, -1, 1e308, 1e-300, "x", [], {}, None, True)
BAD_UTF8 = (b"\xff", b"\xe9", b"\x80", b"\xc3", b"\xed\xa0\x80")  # a lone surrogate last
DIGIT_RUNS = (b"1" * 5000, b"-" + b"9" * 5000, b"0." + b"1" * 5000, b"1e" + b"9" * 5000)
NUMBER = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?")
SCALES = (-1.0, 0.5, 10.0, 1e300)
COMMANDS = (
    ["validate"],
    ["solve-agent"],
    ["classify-risk"],
    ["analyze"],
    ["solve-game"],
    ["sweep", "--points", "5"],
    ["simulate", "--effort", "0.5", "--n", "10"],
)


def _slots(node):
    """Every (container, key) pair below node, parents before children."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


def mutate(doc, rng: random.Random):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = rng.choice(slots)
        value = parent[key]
        roll = rng.random()
        if roll < 0.25:
            del parent[key]
        elif roll < 0.5 and type(value) in (int, float):
            parent[key] = value * rng.choice(SCALES)
        else:
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return doc


def deepest_decodable() -> int:
    """The deepest array nesting json.loads decodes from this stack depth."""
    lo, hi = 1, 100_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
        except RecursionError:
            hi = mid - 1
        else:
            lo = mid
    return lo


def raw_mutations(data: bytes, rng: random.Random) -> list[bytes]:
    """Raw-text copies of a document: truncations, bit flips, invalid UTF-8
    and long digit runs, RAW_TEXTS of each, and deep nesting."""
    numbers = list(NUMBER.finditer(data))
    texts = []
    for _ in range(RAW_TEXTS):
        cut = rng.randrange(len(data))
        texts.append(data[:cut])
        flipped = bytearray(data)
        flipped[cut] ^= 1 << rng.randrange(8)
        texts.append(bytes(flipped))
        texts.append(data[:cut] + rng.choice(BAD_UTF8) + data[cut:])
        number = rng.choice(numbers)
        texts.append(data[: number.start()] + rng.choice(DIGIT_RUNS) + data[number.end():])
    # nesting about as deep as the decoder reaches from here, where a message
    # that quotes the value could exceed the recursion limit, and far deeper;
    # read_json refuses them all before decoding (scenario_io.MAX_NESTING)
    deepest = deepest_decodable()
    for depth in range(deepest - 30, deepest + 3):
        number = rng.choice(numbers)
        nested = b"[" * depth + b"]" * depth
        texts.append(data[: number.start()] + nested + data[number.end():])
    texts.append(b"[" * 100_000 + b"]" * 100_000)
    return texts


def _run_commands(path, failures) -> None:
    """Each command on the document at path; what escapes or exits oddly goes to failures."""
    for command in COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = run_command(argv)
        except Exception as err:  # noqa: BLE001 - any escape is the failure
            failures.append((argv[0], path.read_bytes()[:200], repr(err)[:200]))
            continue
        if code not in (0, 1, 2):
            failures.append((argv[0], path.read_bytes()[:200], f"exit {code}"))


def test_mutated_documents_never_crash_the_cli(tmp_path):
    base = json.loads(FIXTURE.read_text(encoding="utf-8"))
    rng = random.Random(SEED)
    failures = []
    for k in range(DOCUMENTS):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(mutate(base, rng)), encoding="utf-8")
        _run_commands(path, failures)
    assert not failures, "\n".join(map(str, failures[:5]))


def test_mutated_raw_text_never_crashes_the_cli(tmp_path):
    rng = random.Random(SEED)
    failures = []
    for k, text in enumerate(raw_mutations(FIXTURE.read_bytes(), rng)):
        path = tmp_path / f"raw{k}.json"
        path.write_bytes(text)
        _run_commands(path, failures)
    assert not failures, "\n".join(map(str, failures[:5]))
