"""What a cold process imports: ``import contractgame`` loads no submodule,
and the CLI loads a solver module only for the command that runs it.

Each check runs in a fresh interpreter, since this test process has
imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SRC = str(TESTS.parent / "src")
FIXTURE = str(TESTS / "fixtures" / "scenario_r.json")

# what `import contractgame.cli` loads, and all that `validate` needs
CLI_MODULES = {"cli", "curves", "errors", "model", "scenario_io", "tables"}

# the solver modules each command adds to CLI_MODULES
COMMAND_MODULES = {
    ("validate",): set(),
    ("solve-agent",): {"agent"},
    ("classify-risk",): {"agent"},
    ("sweep", "--points", "11"): {"agent"},
    ("analyze",): {"agent", "analyses"},
    ("solve-game",): {"agent", "principal"},
    ("simulate", "--effort", "0.5", "--n", "100", "--seed", "7"): {"oracle"},
}


def loaded_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after it runs code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def submodules(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("contractgame.")}


def test_package_import_loads_no_submodule_and_no_numpy():
    modules = loaded_after(
        "import contractgame\n"
        "assert set(contractgame.__all__) <= set(dir(contractgame))"
    )
    assert "contractgame" in modules
    assert submodules(modules) == set()
    assert "numpy" not in modules


def test_cli_import_loads_only_what_validate_needs():
    assert submodules(loaded_after("import contractgame.cli")) == CLI_MODULES


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES), ids=lambda c: c[0])
def test_command_loads_only_its_solver_modules(command):
    argv = [command[0], FIXTURE, *command[1:]]
    modules = loaded_after(
        "from contractgame.cli import run_command\n"
        f"assert run_command({argv!r}) == 0"
    )
    assert submodules(modules) == CLI_MODULES | COMMAND_MODULES[command]


def test_solve_game_on_a_tabulated_profile_loads_no_numpy_ma(tmp_path):
    """A tabulated curve's enclosures split cells at its knots without
    np.union1d, whose np.unique imports numpy.ma (~14 ms of a cold command)."""
    raw = json.loads(Path(FIXTURE).read_text())
    raw["profile"] = [
        {"family": "tabulated", "knots": [0.0, 0.3, 0.6, 1.0], "values": [0.2, 0.4, 0.55, 0.7]}
    ]
    document = tmp_path / "tabulated.json"
    document.write_text(json.dumps(raw))
    modules = loaded_after(
        "from contractgame.cli import run_command\n"
        f"assert run_command(['solve-game', {str(document)!r}]) == 0"
    )
    assert "contractgame.principal" in modules
    assert "numpy.ma" not in modules
