"""Mutation fuzz of the CLI: every malformed document is an exit code, never a crash.

Mutated copies of the reference fixture (a key dropped, a leaf swapped for
an awkward value, a number scaled) go through all seven commands in
process.  Each run must return 0, 1 or 2; an exception escaping
``run_command`` is a failure.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

from contractgame.cli import run_command

FIXTURE = Path(__file__).parent / "fixtures" / "scenario_r.json"
DOCUMENTS = 150
SEED = 20111
REPLACEMENTS = (0, -1, 1e308, 1e-300, "x", [], {}, None, True)
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


def test_mutated_documents_never_crash_the_cli(tmp_path):
    base = json.loads(FIXTURE.read_text(encoding="utf-8"))
    rng = random.Random(SEED)
    failures = []
    for k in range(DOCUMENTS):
        doc = mutate(base, rng)
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = run_command(argv)
            except Exception as err:  # noqa: BLE001 - any escape is the failure
                failures.append((argv[0], json.dumps(doc), repr(err)))
                continue
            if code not in (0, 1, 2):
                failures.append((argv[0], json.dumps(doc), f"exit {code}"))
    assert not failures, "\n".join(map(str, failures[:5]))
