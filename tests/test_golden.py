"""Byte-for-byte CLI output on the reference fixture, and module hygiene.

The files under ``tests/golden/`` hold the stdout of each CLI command on
``tests/fixtures/scenario_r.json``.  The fixture uses only polynomials and
the pcg64 stream, so the bytes do not depend on the platform's libm.
Regenerate a golden only for an intended output change, e.g.
``contractgame solve-agent tests/fixtures/scenario_r.json > tests/golden/solve-agent.json``.
"""

import ast
import importlib
from pathlib import Path

import pytest

from contractgame.cli import run_command

TESTS = Path(__file__).parent
FIXTURE = str(TESTS / "fixtures" / "scenario_r.json")
SOURCES = TESTS.parent / "src" / "contractgame"

GOLDEN_COMMANDS = {
    "validate.json": ["validate"],
    "solve-agent.json": ["solve-agent"],
    "classify-risk.json": ["classify-risk"],
    "analyze.json": ["analyze"],
    "solve-game.json": ["solve-game"],
    "sweep.csv": ["sweep", "--points", "11"],
    "simulate.json": ["simulate", "--effort", "0.5", "--n", "1000", "--seed", "7"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_cli_stdout_matches_golden(golden, capsys):
    command, *options = GOLDEN_COMMANDS[golden]
    assert run_command([command, FIXTURE, *options]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (TESTS / "golden" / golden).read_text(encoding="utf-8")
    assert captured.out == expected


def _private_imports(path: Path):
    """Underscore names a module imports from another contractgame module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "contractgame"
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "contractgame"]
            internal = bool(names)
            parts = [p for name in names for p in name.split(".")]
        else:
            continue
        if internal:
            yield from (p for p in parts if p.startswith("_") and p != "__future__")


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SOURCES.glob("*.py")), ids=str
)
def test_no_cross_module_private_imports(module):
    assert list(_private_imports(SOURCES / module)) == []


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in SOURCES.glob("*.py")), ids=str
)
def test_every_exported_name_exists(module):
    name = "contractgame" if module == "__init__" else f"contractgame.{module}"
    loaded = importlib.import_module(name)
    missing = [n for n in getattr(loaded, "__all__", ()) if not hasattr(loaded, n)]
    assert missing == []
