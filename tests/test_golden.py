"""Byte-for-byte CLI output on the reference fixture, and module hygiene.

The files under ``tests/golden/`` hold the stdout of each CLI command on
``tests/fixtures/scenario_r.json``, and of ``solve-game`` under each
tie-break policy on ``tests/fixtures/scenario_twin.json``, whose contract
(2, 0) leaves the agent tied between two efforts.  The fixtures use only
polynomials and the pcg64 stream, so the bytes do not depend on the
platform's libm.  Regenerate a golden only for an intended output change, e.g.
``contractgame solve-agent tests/fixtures/scenario_r.json > tests/golden/solve-agent.json``.
Each golden is checked in this process and from a cold ``python -m
contractgame.cli`` process, which imports only what its command needs.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contractgame
import contractgame.analyses
import contractgame.model
import contractgame.principal
from contractgame.cli import run_command
from contractgame.principal import TIE_BREAK_POLICIES

TESTS = Path(__file__).parent
FIXTURE = str(TESTS / "fixtures" / "scenario_r.json")
TWIN = str(TESTS / "fixtures" / "scenario_twin.json")
SOURCES = TESTS.parent / "src" / "contractgame"

GOLDEN_COMMANDS = {
    "validate.json": ["validate", FIXTURE],
    "solve-agent.json": ["solve-agent", FIXTURE],
    "classify-risk.json": ["classify-risk", FIXTURE],
    "analyze.json": ["analyze", FIXTURE],
    "solve-game.json": ["solve-game", FIXTURE],
    "sweep.csv": ["sweep", FIXTURE, "--points", "11"],
    "simulate.json": ["simulate", FIXTURE, "--effort", "0.5", "--n", "1000", "--seed", "7"],
    **{
        f"solve-game-{policy}.json": ["solve-game", TWIN, "--tie-break", policy]
        for policy in TIE_BREAK_POLICIES
    },
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_cli_stdout_matches_golden(golden, capsys):
    assert run_command(GOLDEN_COMMANDS[golden]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (TESTS / "golden" / golden).read_text(encoding="utf-8")
    assert captured.out == expected


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_cold_cli_stdout_matches_golden(golden):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contractgame.cli", *GOLDEN_COMMANDS[golden]],
        capture_output=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (TESTS / "golden" / golden).read_bytes()


def test_package_names_resolve_to_their_home_modules():
    for name in contractgame.__all__:
        value = getattr(contractgame, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(contractgame.__all__) <= set(dir(contractgame))
    namespace = {}
    exec("from contractgame import *", namespace)
    assert all(namespace[name] is getattr(contractgame, name) for name in contractgame.__all__)
    with pytest.raises(AttributeError):
        contractgame.no_such_name  # noqa: B018


@pytest.mark.parametrize(
    "module, name",
    [
        (contractgame.principal, "WageGrid"),
        (contractgame.principal, "ContractFamily"),
        (contractgame.principal, "TIE_BREAK_POLICIES"),
        (contractgame.principal, "ENUMERATION_CAP"),
        (contractgame.analyses, "EPSILON_INVISIBLE"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_moved_names_are_the_model_objects(module, name):
    assert getattr(module, name) is getattr(contractgame.model, name)


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


def _tracing_module():
    """perfbench/tracing.py, loaded from its file (it is not a package)."""
    path = TESTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The benchmark's trace run replaces these by name, so a rename or an
    inherited curve method would crash it."""
    tracing = _tracing_module()
    for module, attr, _ in tracing.LAYER_TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls in tracing.CURVE_CLASSES:
        for method in ("eval", "d1", "d2"):
            assert method in vars(cls), f"{cls.__name__}.{method}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert run_command(["solve-game", FIXTURE]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["principal.solve_game"] == 1
    assert summary["curve_calls"]["array"] > 0
