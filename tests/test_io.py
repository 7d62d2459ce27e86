"""Scenario document parsing, precise serialization, CLI contract."""

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from test_fuzz import deepest_decodable

from contractgame import (
    AgentPreferences,
    Contract,
    ContractFamily,
    ContractGameError,
    DimensionError,
    DomainError,
    ExpAffine,
    LogAffine,
    ParseError,
    Polynomial,
    Power,
    PrincipalPreferences,
    RiskClass,
    RiskClassification,
    Tabulated,
    ValidationError,
    WageGrid,
    parse_scenario,
    solve_game,
)
from contractgame import cli, scenario_io
from contractgame.cli import run_command
from contractgame.scenario_io import (
    SolverOptions,
    SweepTable,
    curve_from_spec,
    curve_to_spec,
    document_from_dict,
    document_to_dict,
    emit_report,
    read_json,
    render_json,
)

FIXTURE = str(Path(__file__).parent / "fixtures" / "scenario_r.json")
SRC = str(Path(__file__).parent.parent / "src")


def fixture_dict() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def write_doc(tmp_path, raw, name="doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def run_cli(args, hash_seed="0"):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "contractgame.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsing:
    def test_reference_fixture(self):
        doc = parse_scenario(FIXTURE)
        assert doc.scenario.n_outcomes == 2
        assert doc.scenario.interval.lo == 0.0
        assert doc.scenario.interval.hi == 1.0
        assert doc.contracts == (Contract((4.0, 0.0)),)
        assert doc.contract_family is not None
        assert doc.options == SolverOptions()

    def test_unknown_key_named(self, tmp_path):
        raw = fixture_dict()
        raw["agent"]["utilty"] = raw["agent"]["utility"]
        with pytest.raises(ParseError, match="utilty"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_probability_overflow_is_validation_error(self, tmp_path):
        raw = fixture_dict()
        raw["profile"][0]["coefficients"] = [0.2, 1.0]  # p1(1) = 1.2
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_doc(tmp_path, raw))
        assert any("outside [0, 1]" in str(i) for i in err.value.issues)

    def test_contract_dimension_is_validation_error(self, tmp_path):
        raw = fixture_dict()
        raw["contracts"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(ValidationError):
            parse_scenario(write_doc(tmp_path, raw))

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,,}', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            parse_scenario(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_scenario("/nonexistent/scenario.json")

    def test_missing_required_key(self, tmp_path):
        raw = fixture_dict()
        del raw["principal"]
        with pytest.raises(ParseError, match="principal"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_unknown_curve_family(self, tmp_path):
        raw = fixture_dict()
        raw["agent"]["utility"] = {"family": "spline", "coefficients": [1.0]}
        with pytest.raises(ParseError, match="spline"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_unsupported_schema(self, tmp_path):
        raw = fixture_dict()
        raw["schema"] = 2
        with pytest.raises(ParseError, match="schema"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_option_overrides(self, tmp_path):
        raw = fixture_dict()
        raw["options"] = {
            "epsilon_invisible": 1e-6,
            "tie_break": "agent-lowest-effort",
            "seed": 42,
        }
        doc = parse_scenario(write_doc(tmp_path, raw))
        assert doc.options.epsilon_invisible == 1e-6
        assert doc.options.tie_break == "agent-lowest-effort"
        assert doc.options.seed == 42

    def test_unknown_option_rejected(self, tmp_path):
        raw = fixture_dict()
        raw["options"] = {"scan_points": 100}
        with pytest.raises(ParseError, match="scan_points"):
            parse_scenario(write_doc(tmp_path, raw))

    @pytest.mark.parametrize(
        "key",
        [
            "mt_grid_points",
            "scan_grid_points",
            "risk_grid_points",
            "validation_grid_points",
            "refine_tolerance",
            "effort_tolerance",
            "expectation_tie_tolerance",
        ],
    )
    def test_fixed_numerics_are_not_options(self, key, tmp_path):
        raw = fixture_dict()
        raw["options"] = {key: 1}
        with pytest.raises(ParseError, match=f"options: unknown key '{key}'"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_bad_tie_break_rejected(self, tmp_path):
        raw = fixture_dict()
        raw["options"] = {"tie_break": "coin-flip"}
        with pytest.raises(ParseError, match="coin-flip"):
            parse_scenario(write_doc(tmp_path, raw))

    def test_family_needs_exactly_one_source(self, tmp_path):
        raw = fixture_dict()
        raw["contract_family"] = {"contracts": [[1.0, 0.0]], "wage_grids": []}
        with pytest.raises(ParseError):
            parse_scenario(write_doc(tmp_path, raw))

    @pytest.mark.parametrize(
        "strip, named",
        [
            (lambda raw: raw["agent"].update(effort_cost={"family": "exp-affine"}), "'a'"),
            (lambda raw: [raw.pop(k) for k in ("principal", "profile", "outcomes")], "'outcomes'"),
        ],
        ids=["curve", "document"],
    )
    def test_missing_keys_named_in_schema_order(self, strip, named, tmp_path):
        raw = fixture_dict()
        strip(raw)
        path = write_doc(tmp_path, raw)
        messages = []
        for hash_seed in ("1", "2"):
            code, out, _ = run_cli(["validate", path], hash_seed)
            assert code == 1
            messages.append(json.loads(out)["issues"][0]["message"])
        assert messages[0] == messages[1]
        assert f"missing required key {named}" in messages[0]

    def test_bad_wage_grid_is_validation_error(self, tmp_path, capsys):
        raw = fixture_dict()
        raw["contract_family"]["wage_grids"][0]["step"] = 0.0
        path = write_doc(tmp_path, raw)
        with pytest.raises(ValidationError):
            parse_scenario(path)
        assert run_command(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["issues"][0]["kind"] == "DimensionError"

    def test_interval_of_overflowing_width_is_one_issue(self, tmp_path, capsys):
        raw = fixture_dict()
        raw["effort_interval"] = [-1e308, 1e308]
        path = write_doc(tmp_path, raw)
        assert run_command(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert [issue["kind"] for issue in out["issues"]] == ["DimensionError"]
        assert "width overflows" in out["issues"][0]["message"]


def _nan_coefficient(raw):
    raw["profile"][0]["coefficients"][1] = float("nan")
    return json.dumps(raw)


def _overflowing_outcome(raw):
    return json.dumps(raw).replace("[10.0, 2.0]", "[1e400, 2.0]")


def _overflowing_cost(raw):
    raw["agent"]["effort_cost"] = {"family": "exp-affine", "a": 0.0, "b": 1.0, "c": 1000.0}
    return json.dumps(raw)


def test_closed_stdout_exits_without_traceback():
    """A reader that closes the pipe early (`| head -1`) gets exit 1, no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the command writes anything
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "contractgame.cli", "solve-agent", FIXTURE],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "mutate", [_nan_coefficient, _overflowing_outcome, _overflowing_cost]
    )
    def test_rejected_with_one_error_line(self, mutate, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(mutate(fixture_dict()), encoding="utf-8")
        code, out, err = run_cli(["validate", str(path)])
        assert code == 1
        assert json.loads(out)["valid"] is False
        assert err == ""
        code, out, err = run_cli(["solve-agent", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"]
    )
    def test_constant_literal_is_a_parse_error(self, value, tmp_path):
        """JSON's NaN, Infinity and -Infinity literals are refused when read."""
        literal = json.dumps(value)
        with pytest.raises(ParseError) as err:
            read_json("text", f"[1.0, {literal}]")
        assert str(err.value) == f"text: {literal} is not a finite number"
        raw = fixture_dict()
        raw["profile"][0]["coefficients"][1] = value
        path = write_doc(tmp_path, raw)
        with pytest.raises(ParseError) as err:
            parse_scenario(path)
        assert str(err.value) == f"{path}: {literal} is not a finite number"

    def test_constant_literal_is_one_error_line(self, tmp_path, capsys):
        for value in (math.nan, math.inf, -math.inf):
            raw = fixture_dict()
            raw["agent"]["reservation_utility"] = value
            path = write_doc(tmp_path, raw)
            assert run_command(["solve-agent", path]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {path}: {json.dumps(value)} is not a finite number\n"

    def test_scalar_overflow_is_a_domain_error(self, tmp_path, capsys):
        with pytest.raises(DomainError, match="overflows"):
            ExpAffine(0.0, 1.0, 1.0).eval(1000.0)
        with pytest.raises(DomainError, match="overflows"):
            Power(1.0, 400.0, 0.0).eval(10.0)
        raw = fixture_dict()
        raw["agent"]["utility"] = {"family": "exp-affine", "a": 0.0, "b": 1.0, "c": 1.0}
        path = write_doc(tmp_path, raw)
        assert run_command(["solve-agent", path, "--contract", "[1000, 0]"]) == 1
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "utility, contract",
        [
            ([0.0, 1.0], "[1e400, 0]"),  # parses to an infinite wage
            ([0.0, 1.0], "[1" + "0" * 400 + ", 0]"),  # an integer beyond float range
            ([0.0, 1e308], "[10, 0]"),  # u(10) overflows
        ],
        ids=["infinite-wage", "huge-integer-wage", "utility-overflow"],
    )
    def test_inline_contract_checked_like_document_contracts(
        self, utility, contract, tmp_path
    ):
        raw = fixture_dict()
        raw["agent"]["utility"]["coefficients"] = utility
        raw["contracts"] = [[1.0, 0.0]]
        path = write_doc(tmp_path, raw)
        code, out, err = run_cli(["solve-agent", path, "--contract", contract])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err or "non-finite" in err

    def test_only_an_inline_contract_is_checked_again(self, tmp_path, monkeypatch, capsys):
        """parse_scenario has checked the document's contracts; --contract checks an inline one."""
        calls = []
        check = cli.contract_issues

        def counting_check(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(cli, "contract_issues", counting_check)
        raw = fixture_dict()
        raw["agent"]["utility"] = curve_to_spec(Power(1.0, 0.5, 0.0))
        path = write_doc(tmp_path, raw)
        assert run_command(["solve-agent", path, "--contract", "0"]) == 0
        assert calls == []
        assert run_command(["solve-agent", path, "--contract", "[4, 1]"]) == 0
        assert len(calls) == 1
        capsys.readouterr()
        # u(-1) is undefined
        assert run_command(["solve-agent", path, "--contract", "[-1, 0]"]) == 1
        assert len(calls) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "wage utility at contract [-1, 0] w1" in err


def _negative_seed(raw):
    raw["options"] = {"seed": -1}


def _scalar_contracts(raw):
    raw["contracts"] = 5


def _scalar_family_contracts(raw):
    raw["contract_family"] = {"contracts": 5}


def _uncountable_wage_grid(raw):
    raw["contract_family"]["wage_grids"][0] = {"min": 0, "max": 1e300, "step": 1e-300}


def _negative_cap(raw):
    raw["contract_family"]["cap"] = -1


def _zero_cap(raw):
    raw["contract_family"]["cap"] = 0


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "mutate, solve",
        [
            (_negative_seed, ["simulate", "--effort", "0.5", "--n", "10"]),
            (_scalar_contracts, ["solve-agent"]),
            (_scalar_family_contracts, ["solve-game"]),
            (_uncountable_wage_grid, ["solve-game"]),
            (_negative_cap, ["solve-game"]),
            (_zero_cap, ["solve-game"]),
        ],
        ids=[
            "negative-seed",
            "contracts-not-a-list",
            "family-contracts-not-a-list",
            "wage-grid-count",
            "negative-cap",
            "zero-cap",
        ],
    )
    def test_invalid_and_refused(self, mutate, solve, tmp_path, capsys):
        raw = fixture_dict()
        mutate(raw)
        path = write_doc(tmp_path, raw)
        assert run_command(["validate", path]) == 1
        assert json.loads(capsys.readouterr().out)["valid"] is False
        assert run_command([solve[0], path, *solve[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("schema", [True, 1.0, "1"], ids=["true", "float", "string"])
    def test_schema_must_be_the_integer_1(self, schema, tmp_path, capsys):
        raw = fixture_dict()
        raw["schema"] = schema
        with pytest.raises(ParseError, match="document: unsupported schema"):
            document_from_dict(raw)
        path = write_doc(tmp_path, raw)
        assert run_command(["validate", path]) == 1
        assert json.loads(capsys.readouterr().out)["valid"] is False

    def test_family_cap_below_one_rejected_in_library(self):
        with pytest.raises(DimensionError):
            ContractFamily(contracts=(Contract((4.0, 0.0)),), cap=0)

    def test_negative_seed_flag(self, capsys):
        argv = ["simulate", FIXTURE, "--effort", "0.5", "--n", "10", "--seed", "-3"]
        assert run_command(argv) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_flag(self, epsilon, capsys):
        assert run_command(["analyze", FIXTURE, "--epsilon", epsilon]) == 1
        assert "--epsilon" in capsys.readouterr().err

    # 10^16 floats are 71 PiB, beyond any address space, so the allocation
    # fails at once; 10^30 is beyond numpy's largest array
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", FIXTURE, "--points", str(10**16)],
            ["sweep", FIXTURE, "--points", str(10**30)],
            ["simulate", FIXTURE, "--effort", "0.5", "--n", str(10**16)],
            ["simulate", FIXTURE, "--effort", "0.5", "--n", str(10**30)],
        ],
        ids=["sweep-1e16", "sweep-1e30", "simulate-1e16", "simulate-1e30"],
    )
    def test_sizes_beyond_memory_give_one_error_line(self, argv, capsys):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(int(argv[-1])) in captured.err


def _latin1_text(path):
    text = Path(FIXTURE).read_text(encoding="utf-8")
    path.write_bytes(text.replace('"schema": 1', '"schema": 1, "note": "caf\u00e9"').encode("latin-1"))


def _overlong_integer(path):
    text = Path(FIXTURE).read_text(encoding="utf-8")
    path.write_text(text.replace('"reservation_utility": 0.0', '"reservation_utility": ' + "1" * 5000))


def _deep_nesting(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


class TestUndecodableInput:
    """JSON that cannot be read or decoded is one ParseError, never a traceback."""

    @pytest.mark.parametrize(
        "write", [_latin1_text, _overlong_integer, _deep_nesting],
        ids=["latin-1", "5000-digit-integer", "100000-nested-arrays"],
    )
    def test_document_is_one_parse_error(self, write, tmp_path, capsys):
        path = tmp_path / "doc.json"
        write(path)
        assert run_command(["validate", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert [issue["kind"] for issue in report["issues"]] == ["ParseError"]
        assert report["issues"][0]["message"].startswith(f"{path}: cannot decode: ")
        assert run_command(["solve-agent", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_deeply_nested_inline_contract_is_one_error_line(self, capsys):
        nested = "[" * 2000 + "]" * 2000
        assert run_command(["solve-agent", FIXTURE, "--contract", nested]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad inline contract ")
        assert captured.err.count("\n") == 1


def _at_stack_depth(frames: int, call):
    """call() from frames more Python frames down the stack."""
    return call() if frames == 0 else _at_stack_depth(frames - 1, call)


class TestNestingLimit:
    """Text nested deeper than scenario_io.MAX_NESTING is refused before it is
    decoded, so the message is the same from any caller's stack depth."""

    @pytest.mark.parametrize("where", ["document", "inline-contract"])
    def test_message_does_not_depend_on_stack_depth(self, where, tmp_path, capsys):
        # decodable from this frame, but not from 60 frames further down
        depth = deepest_decodable() - 40
        nested = "[" * depth + "]" * depth
        if where == "document":
            raw = fixture_dict()
            raw["outcomes"] = "NESTED"
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(raw).replace('"NESTED"', nested), encoding="utf-8")
            argv = ["solve-agent", str(path)]
        else:
            argv = ["solve-agent", FIXTURE, "--contract", nested]
        errors = []
        for frames in (0, 60):
            assert _at_stack_depth(frames, lambda: run_command(argv)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        limit = scenario_io.MAX_NESTING
        assert errors[0].endswith(f": cannot decode: nested deeper than {limit} levels\n")

    def test_limit_is_exact_and_ignores_brackets_in_strings(self):
        limit = scenario_io.MAX_NESTING
        at_limit = "[" * limit + "]" * limit
        assert scenario_io.read_json("text", at_limit) == json.loads(at_limit)
        assert scenario_io.read_json("text", json.dumps(["[{" * 200])) == ["[{" * 200]
        with pytest.raises(ParseError, match=f"^text: cannot decode: nested deeper than {limit} levels$"):
            scenario_io.read_json("text", "[" * (limit + 1) + "]" * (limit + 1))


class TestLongValuesInMessages:
    """A message quotes at most scenario_io.QUOTE_CHARS characters of a value."""

    def test_long_document_value_is_clipped(self, tmp_path, capsys):
        raw = json.loads(Path(FIXTURE).read_text(encoding="utf-8"))
        raw["outcomes"][0] = list(range(100_000))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(raw))
        assert run_command(["solve-agent", str(path)]) == 1
        quoted = repr(list(range(100_000)))[:100]
        expected = f"error: outcomes[0]: expected a number, got {quoted}...\n"
        assert capsys.readouterr().err == expected
        assert run_command(["validate", str(path)]) == 1
        assert len(capsys.readouterr().out) < 400

    def test_deeply_nested_inline_contract_is_clipped(self, capsys):
        nested = "[" * 2000 + "]" * 2000
        assert run_command(["solve-agent", FIXTURE, "--contract", nested]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad inline contract '" + "[" * 99 + "...: cannot decode: ")
        assert err.count("\n") == 1 and len(err) < 300

    def test_value_too_deep_to_quote_is_one_parse_error(self):
        nested = []
        for _ in range(100_000):
            nested = [nested]
        raw = fixture_dict()
        raw["outcomes"][0] = nested
        with pytest.raises(ParseError) as err:
            document_from_dict(raw)
        assert str(err.value) == "document: nested too deeply"

    @pytest.mark.parametrize("value", ["ten", "x" * 98])
    def test_short_values_are_quoted_whole(self, value):
        raw = json.loads(Path(FIXTURE).read_text(encoding="utf-8"))
        raw["outcomes"][0] = value
        with pytest.raises(ParseError) as err:
            document_from_dict(raw)
        assert str(err.value) == f"outcomes[0]: expected a number, got {value!r}"


def _overflowing_cost_derivatives(raw):
    raw["agent"]["effort_cost"]["coefficients"] = [0.0, 0.0, -1e308]


def _overflowing_family_utility(raw):
    raw["agent"]["utility"]["coefficients"] = [0.0, 1e308]
    raw["contracts"] = [[1.0, 0.0]]


def _overflowing_payoff_spread(raw):
    raw["outcomes"] = [1e-300, 2.0]
    raw["agent"]["effort_cost"]["coefficients"] = [0.0, 0.0, 2e300]


class TestOverflowAfterValidation:
    """Documents that validate, but whose derivatives or payoffs overflow."""

    @pytest.mark.parametrize(
        "mutate, command",
        [
            (_overflowing_cost_derivatives, ["solve-agent"]),
            (_overflowing_cost_derivatives, ["classify-risk"]),
            (_overflowing_cost_derivatives, ["analyze"]),
            (_overflowing_cost_derivatives, ["sweep", "--points", "5"]),
            (_overflowing_cost_derivatives, ["solve-game"]),
            (_overflowing_family_utility, ["solve-game"]),
            (_overflowing_payoff_spread, ["simulate", "--effort", "0.5", "--n", "10"]),
        ],
        ids=[
            "cost-solve-agent",
            "cost-classify-risk",
            "cost-analyze",
            "cost-sweep",
            "cost-solve-game",
            "family-utility-solve-game",
            "payoff-spread-simulate",
        ],
    )
    def test_domain_error_not_traceback(self, mutate, command, tmp_path, capsys):
        raw = fixture_dict()
        mutate(raw)
        path = write_doc(tmp_path, raw)
        assert run_command(["validate", path]) == 0
        capsys.readouterr()
        assert run_command([command[0], path, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "finite" in captured.err


# an instance of each dataclass the document walk reads and writes, and its key table
_WALKED = [
    (Polynomial((0.5, -1.0, 2.0)), None),
    (ExpAffine(0.1, 2.0, -0.5), None),
    (LogAffine(0.0, 1.5, 2.0), None),
    (Power(2.0, 0.5, 1.0), None),
    (Tabulated((0.0, 0.5, 1.0), (0.0, 0.7, 1.0)), None),
    (AgentPreferences(Polynomial((0.0, 1.0)), ExpAffine(0.0, 1.0, 1.0), -0.5), None),
    (PrincipalPreferences(Power(1.0, 0.5, 0.0)), None),
    (SolverOptions(1e-7, "agent-highest-effort", 9), None),
    (WageGrid(0.0, 6.0, 0.25), scenario_io._GRID_KEYS),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "curve, params",
        [
            (Polynomial((0.5, -1.0, 2.0)), ["coefficients"]),
            (ExpAffine(0.1, 2.0, -0.5), ["a", "b", "c"]),
            (LogAffine(0.0, 1.5, 2.0), ["a", "b", "c"]),
            (Power(2.0, 0.5, 1.0), ["a", "gamma", "c"]),
            (Tabulated((0.0, 0.5, 1.0), (0.0, 0.7, 1.0)), ["knots", "values"]),
        ],
        ids=["polynomial", "exp-affine", "log-affine", "power", "tabulated"],
    )
    def test_curve_spec_round_trips(self, curve, params):
        spec = curve_to_spec(curve)
        assert list(spec) == ["family", *params]
        assert spec["family"] == curve.family
        assert curve_from_spec(json.loads(json.dumps(spec)), "curve") == curve

    @staticmethod
    def _round_trip(path):
        doc = parse_scenario(path)
        text = render_json(document_to_dict(doc))
        again = document_from_dict(json.loads(text))
        assert again.scenario == doc.scenario
        assert again.contracts == doc.contracts
        assert again.contract_family == doc.contract_family
        assert again.options == doc.options
        assert render_json(document_to_dict(again)) == text
        return again

    def test_document_round_trips_exactly(self, tmp_path):
        assert self._round_trip(FIXTURE).contract_family.grids is not None

    def test_explicit_family_round_trips_like_wage_grids(self, tmp_path):
        raw = fixture_dict()
        raw["contract_family"] = {"contracts": [[4.0, 0.0], [2.5, 0.5]], "cap": 7}
        family = self._round_trip(write_doc(tmp_path, raw)).contract_family
        assert family.contracts == (Contract((4.0, 0.0)), Contract((2.5, 0.5)))
        assert family.cap == 7

    @pytest.mark.parametrize("obj, keys", _WALKED, ids=[type(o).__name__ for o, _ in _WALKED])
    def test_every_walked_field_has_a_parser_and_a_key(self, obj, keys):
        cls = type(obj)
        names = [f.name for f in fields(cls) if f.init]
        assert set(keys or {}) <= set(names)
        walked = scenario_io._document_fields(cls, keys)
        assert [f.name for f, _ in walked] == names
        for f, key in walked:
            assert f.type in scenario_io._PARSERS, (cls.__name__, f.name, f.type)
        document_keys = [key for _, key in walked]
        assert len(set(document_keys)) == len(document_keys)
        node = json.loads(render_json(scenario_io._to_fields(obj, keys)))
        assert list(node) == document_keys
        assert scenario_io._from_fields(cls, node, "node", keys) == obj

    def test_every_curve_family_is_walked(self):
        walked = {type(obj) for obj, _ in _WALKED}
        assert set(scenario_io._CURVE_CLASSES.values()) <= walked

    def test_awkward_floats_survive(self, tmp_path):
        raw = fixture_dict()
        ugly = 0.1 + 0.2
        raw["outcomes"] = [ugly, -1.2345678901234567e-13]
        raw["agent"]["reservation_utility"] = -1e-300
        path = write_doc(tmp_path, raw)
        doc = parse_scenario(path)
        text = render_json(document_to_dict(doc))
        again = document_from_dict(json.loads(text))
        assert again.scenario.outcomes == (ugly, -1.2345678901234567e-13)
        assert again.scenario.agent.reservation_utility == -1e-300

    def test_float_formatting_is_round_trip_exact(self):
        values = [0.1 + 0.2, 1.3, 1e308, 5e-324, -0.0, 123456789.123456789]
        text = render_json({"values": values})
        parsed = json.loads(text)["values"]
        assert parsed == values

    def test_non_default_options_round_trip(self, tmp_path):
        raw = fixture_dict()
        raw["options"] = {"seed": 9, "epsilon_invisible": 1e-7}
        doc = parse_scenario(write_doc(tmp_path, raw))
        again = document_from_dict(json.loads(render_json(document_to_dict(doc))))
        assert again.options == doc.options
        assert again.options.seed == 9


class TestCli:
    def test_validate_ok(self, capsys):
        assert run_command(["validate", FIXTURE]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"valid": True, "issues": []}

    def test_validate_reports_issues(self, tmp_path, capsys):
        raw = fixture_dict()
        raw["profile"][0]["coefficients"] = [0.2, 1.0]
        path = write_doc(tmp_path, raw)
        assert run_command(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert out["issues"][0]["kind"] == "ProbabilityRangeError"

    def test_validate_handles_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json", encoding="utf-8")
        assert run_command(["validate", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["issues"][0]["kind"] == "ParseError"

    def test_usage_errors_exit_two(self, capsys):
        assert run_command(["frobnicate", FIXTURE]) == 2
        assert run_command([]) == 2
        assert run_command(["sweep", FIXTURE]) == 2  # missing --points
        capsys.readouterr()

    def test_solver_errors_exit_one(self, capsys):
        assert run_command(["solve-agent", "/nonexistent.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_solve_agent_reference(self, capsys):
        assert run_command(["solve-agent", FIXTURE]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["maximizers"]) == 1
        top = out["maximizers"][0]
        assert abs(top["effort"] - 0.5) <= 1e-9
        assert top["kind"] == "interior_critical"
        assert abs(out["optimal_expectation"] - 1.3) <= 1e-9
        assert out["accepted"] is True
        assert out["risk"]["classification"] == "averse"

    def test_solve_agent_inline_contract(self, capsys):
        assert run_command(["solve-agent", FIXTURE, "--contract", "[8, 0]"]) == 0
        out = json.loads(capsys.readouterr().out)
        # Mt = 0.5*8 - 4e, so the optimum hits the upper boundary
        assert out["maximizers"][-1]["effort"] == 1.0

    def test_contract_index_out_of_range(self, capsys):
        assert run_command(["solve-agent", FIXTURE, "--contract", "3"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_classify_risk(self, capsys):
        assert run_command(["classify-risk", FIXTURE]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["classification"] == "averse"
        assert out["persistence_min"] == -4.0

    def test_analyze_sections(self, capsys):
        assert run_command(["analyze", FIXTURE]) == 0
        out = json.loads(capsys.readouterr().out)
        assert not out["invisible_effort"]["is_invisible"]
        assert out["two_outcome_linear"] is not None
        assert abs(out["two_outcome_linear"]["foc_target"] - 2.0) <= 1e-12
        assert out["classical_assumptions"]["u_increasing"]["holds"] is True

    def test_analyze_echoes_one_epsilon(self, tmp_path, capsys):
        raw = fixture_dict()
        raw["profile"][0]["coefficients"] = [0.4, 0.0]  # flat p1: reduces
        raw["options"] = {"epsilon_invisible": 1e-6}
        path = write_doc(tmp_path, raw)
        for extra, expected in (([], 1e-6), (["--epsilon", "0.25"], 0.25)):
            assert run_command(["analyze", path, *extra]) == 0
            out = json.loads(capsys.readouterr().out)
            linear = out["two_outcome_linear"]
            assert linear["reduces_to_invisible"] is True
            assert out["invisible_effort"]["epsilon"] == expected
            assert linear["invisible"] == out["invisible_effort"]

    def test_solve_game_matches_library(self, capsys):
        assert run_command(["solve-game", FIXTURE]) == 0
        out = json.loads(capsys.readouterr().out)
        doc = parse_scenario(FIXTURE)
        solution = solve_game(doc.scenario, doc.contract_family)
        assert out["contract"] == list(solution.contract.wages)
        assert abs(out["principal_payoff"] - solution.principal_payoff) <= 1e-12

    def test_solve_game_without_family(self, tmp_path, capsys):
        raw = fixture_dict()
        del raw["contract_family"]
        path = write_doc(tmp_path, raw)
        assert run_command(["solve-game", path]) == 1
        assert "contract_family" in capsys.readouterr().err

    def test_sweep_csv_shape_and_values(self, capsys):
        assert run_command(["sweep", FIXTURE, "--points", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "e,expectation,motivation,persistence"
        assert len(lines) == 6
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert [r[0] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        mid = rows[2]
        assert mid[1] == 1.3
        assert mid[2] == 0.0
        assert mid[3] == -4.0

    def test_sweep_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert run_command(
            ["sweep", FIXTURE, "--points", "9", "--out", str(out_path)]
        ) == 0
        capsys.readouterr()
        text = out_path.read_bytes()
        assert text.count(b"\n") == 10
        assert b"\r" not in text
        assert run_command(
            ["sweep", FIXTURE, "--points", "9", "--out", str(out_path)]
        ) == 0
        assert out_path.read_bytes() == text

    def test_simulate_deterministic_output(self, capsys):
        argv = ["simulate", FIXTURE, "--effort", "0.5", "--n", "5000", "--seed", "7"]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        out = json.loads(first)
        assert out["seed"] == 7
        assert out["generator"] == "numpy-pcg64"
        assert out["draws"] == 5000
        assert sum(out["frequencies"]) == 5000

    def test_byte_identical_reports(self, capsys):
        assert run_command(["solve-agent", FIXTURE]) == 0
        first = capsys.readouterr().out
        assert run_command(["solve-agent", FIXTURE]) == 0
        assert capsys.readouterr().out == first


# each command but validate with an out-of-range --contract and a bad flag,
# where it takes them
_BAD_ARGS = {
    "solve-agent": ["--contract", "99"],
    "classify-risk": ["--contract", "99"],
    "analyze": ["--contract", "99", "--epsilon", "nan"],
    "solve-game": [],
    "sweep": ["--contract", "99", "--points", "1"],
    "simulate": ["--contract", "99", "--effort", "0.5", "--n", "0"],
}

# what each command runs that may allocate, and the flags it needs
_ALLOCATING = {
    "validate": ("scenario_io", "document_from_dict", []),
    "solve-agent": ("agent", "agent_best_response", []),
    "classify-risk": ("agent", "classify_risk", []),
    "analyze": ("analyses", "detect_invisible_effort", []),
    "solve-game": ("principal", "solve_game", []),
    "sweep": ("agent", "agent_payoff_functions", ["--points", "5"]),
    "simulate": ("oracle", "monte_carlo_payoffs", ["--effort", "0.5", "--n", "10"]),
}


class TestCommandEnvelope:
    """run_command reads the document, then resolves --contract, then runs
    the command with its own checks; any failure is one stderr line."""

    @pytest.mark.parametrize("command", sorted(_BAD_ARGS))
    def test_unreadable_document_comes_first(self, command, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text("{", encoding="utf-8")
        assert run_command([command, str(path), *_BAD_ARGS[command]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: invalid JSON at line 1 ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(c for c, bad in _BAD_ARGS.items() if bad))
    def test_contract_comes_before_the_command_flags(self, command, capsys):
        assert run_command([command, FIXTURE, *_BAD_ARGS[command]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: contract index 99 out of range; document has 1 contract(s)\n"

    def test_solve_game_needs_a_family(self, tmp_path, capsys):
        raw = fixture_dict()
        del raw["contract_family"]
        assert run_command(["solve-game", write_doc(tmp_path, raw)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document has no contract_family to search\n"

    @pytest.mark.parametrize("command", sorted(_ALLOCATING))
    def test_out_of_memory_is_one_error_line(self, command, monkeypatch, capsys):
        module, name, flags = _ALLOCATING[command]

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(importlib.import_module(f"contractgame.{module}"), name, exhausted)
        assert run_command([command, FIXTURE, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


_TABLE = SweepTable(("e", "E"), ((0.5, 1.25), (1.0, -2.0)))
_TABLE_CSV = "e,E\n0.5,1.25\n1,-2\n"
_RISK = RiskClassification(RiskClass.AVERSE, -2.0, -0.5)
_RISK_JSON = (
    '{\n  "classification": "averse",\n  "persistence_min": -2,\n'
    '  "persistence_max": -0.5\n}\n'
)


class TestEmitReport:
    @pytest.mark.parametrize("report, text", [(_TABLE, _TABLE_CSV), (_RISK, _RISK_JSON)],
                             ids=["sweep-table-csv", "dataclass-json"])
    def test_format_follows_the_report_type(self, report, text, tmp_path, capsys):
        emit_report(report)
        assert capsys.readouterr().out == text
        target = tmp_path / "report.txt"
        emit_report(report, destination=str(target))
        assert target.read_text(encoding="utf-8") == text
        assert capsys.readouterr().out == ""

    def test_destination_is_keyword_only(self, tmp_path):
        # an old positional format argument must not name a file
        with pytest.raises(TypeError):
            emit_report(_TABLE, "csv")
        with pytest.raises(TypeError):
            emit_report(_RISK, str(tmp_path / "report.json"))
        assert not any(tmp_path.iterdir())

    def test_write_failure_has_path_context(self, tmp_path):
        table = SweepTable(("e",), ((1.0,),))
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(ContractGameError, match="out.csv"):
            emit_report(table, destination=str(target))

    def test_json_report_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        emit_report({"optimal_expectation": 1.3}, destination=str(target))
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["optimal_expectation"] == 1.3


class TestRarelyTakenErrorPaths:
    """Branches of the CLI and the document parser that no other test takes."""

    def test_analyze_three_outcomes_has_no_two_outcome_report(self, tmp_path, capsys):
        raw = fixture_dict()
        raw["outcomes"] = [10.0, 2.0, 1.0]
        raw["profile"].append({"family": "polynomial", "coefficients": [0.1]})
        raw["contracts"] = [[4.0, 0.0, 0.0]]
        raw["contract_family"]["wage_grids"].append({"min": 0.0, "max": 0.0, "step": 1.0})
        assert run_command(["analyze", write_doc(tmp_path, raw)]) == 0
        out = capsys.readouterr().out
        assert '\n  "two_outcome_linear": null,\n' in out
        assert json.loads(out)["two_outcome_linear"] is None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", FIXTURE, "--points", "1"], "--points must be at least 2"),
            (["simulate", FIXTURE, "--effort", "0.5", "--n", "0"], "--n must be at least 1"),
            (
                ["solve-agent", FIXTURE, "--contract", '["a", 0]'],
                "bad inline contract '[\"a\", 0]': expected numbers",
            ),
            (
                ["solve-agent", FIXTURE, "--contract", "abc"],
                "--contract must be an index or an inline vector, got 'abc'",
            ),
        ],
        ids=[
            "sweep-points-1", "simulate-n-0", "inline-contract-of-strings", "contract-not-a-number",
        ],
    )
    def test_bad_flag_is_one_error_line(self, argv, message, capsys):
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "mutate, kind, message",
        [
            (
                lambda raw: raw.update(profile=[{"family": "polynomial", "coefficients": []}]),
                "ParseError", "profile[0]: polynomial needs at least one coefficient",
            ),
            (
                lambda raw: raw.update(outcomes=[10**399, 2.0]),
                "ParseError", f"outcomes[0]: expected a finite number, got {'1' + '0' * 99}...",
            ),
            (
                lambda raw: raw["contract_family"].update(cap=2.5),
                "ParseError", "contract_family.cap: expected an integer, got 2.5",
            ),
            # the kind of a wrongly sized document contract
            (
                lambda raw: raw.update(
                    contract_family={"contracts": [[1.0, 0.0], [1.0, 0.0, 0.0]]}
                ),
                "DimensionError", "contract_family.contracts[1] has 3 wages for 2 outcomes",
            ),
        ],
        ids=[
            "empty-polynomial", "outcome-of-400-digits", "fractional-cap",
            "family-contract-of-3-wages",
        ],
    )
    def test_validate_reports_one_issue(self, mutate, kind, message, tmp_path, capsys):
        raw = fixture_dict()
        mutate(raw)
        assert run_command(["validate", write_doc(tmp_path, raw)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "valid": False, "issues": [{"kind": kind, "message": message}],
        }
