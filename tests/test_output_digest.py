"""The classes of tests/output_digest.py --compare, on small digests."""

import subprocess
import sys
from pathlib import Path

import pytest

DIGEST = Path(__file__).resolve().parent / "output_digest.py"

LINES = (
    "agent 4200/0 BestResponse(maximizers=(Maximizer(effort=0.30000000000000004, "
    "kind=<MaximizerKind.INTERIOR_CRITICAL: 'interior_critical'>, "
    "expectation=1.2345678901234567),), optimal_expectation=1.2345678901234567, "
    "accepted=True, constant_expectation=False)",
    "fuzz document 0 validate exit 0 120 "
    "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
)


def _compare(tmp_path, new_lines):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(LINES) + "\n", encoding="utf-8")
    new.write_text("\n".join(new_lines) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(DIGEST), "--compare", str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_identical_digests_report_no_difference(tmp_path):
    code, out = _compare(tmp_path, LINES)
    assert code == 0
    assert "agent: 0 of 1 lines differ (0 last-bit, 0 other)" in out
    assert "fuzz: 0 of 1 lines differ (0 last-bit, 0 other)" in out


@pytest.mark.parametrize(
    "line, old, new, klass",
    [
        (0, "0.30000000000000004", "0.30000000000000003", "1 last-bit, 0 other"),
        (0, "1.2345678901234567),)", "1.2345678901234566),)", "1 last-bit, 0 other"),
        (0, "INTERIOR_CRITICAL: 'interior_critical'", "BOUNDARY_MAX: 'boundary_max'",
         "0 last-bit, 1 other"),
        (0, "0.30000000000000004", "0.30000001", "0 last-bit, 1 other"),
        (1, "exit 0", "exit 1", "0 last-bit, 1 other"),
        (1, "9f86d081", "9f86d082", "0 last-bit, 1 other"),
    ],
    ids=["effort-last-digit", "value-last-digit", "kind", "effort", "exit-code", "hash"],
)
def test_one_changed_line_is_classified(tmp_path, line, old, new, klass):
    lines = list(LINES)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    code, out = _compare(tmp_path, lines)
    name = ("agent", "fuzz")[line]
    assert code == 1
    assert f"{name}: 1 of 1 lines differ ({klass})" in out


# digest lines as output_digest.py writes them: the key, a tab, the result
KEYED = (
    "agent 4200/0\tBestResponse(maximizers=(Maximizer(effort=0.25, "
    "kind=<MaximizerKind.INTERIOR_CRITICAL: 'interior_critical'>, expectation=1.5), "
    "Maximizer(effort=0.75, kind=<MaximizerKind.INTERIOR_CRITICAL: 'interior_critical'>, "
    "expectation=1.5)), optimal_expectation=1.5, accepted=True, constant_expectation=False)",
    "agent 4200/1\tBestResponse(maximizers=(Maximizer(effort=0.5, "
    "kind=<MaximizerKind.INTERIOR_CRITICAL: 'interior_critical'>, expectation=1.3),), "
    "optimal_expectation=1.3, accepted=True, constant_expectation=False)",
    "families 1/0\tGameSolution(all_rejected=False, contract=Contract(wages=(4.0, 0.0)), "
    "effort=0.5, principal_payoff=3.8, agent_payoff=1.3, tie_break='principal-favorable', "
    "best_response=None)",
    "principal error wrong-length-first contract 0\tDimensionError: contract has 3 wages "
    "for 2 outcomes",
)


def _compare_keyed(tmp_path, new_lines):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("\n".join(KEYED) + "\n", encoding="utf-8")
    new.write_text("\n".join(new_lines) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(DIGEST), "--compare", str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_identical_keyed_digests_report_no_difference(tmp_path):
    code, out = _compare_keyed(tmp_path, KEYED)
    assert code == 0
    assert "agent: 0 of 2 lines differ (0 last-bit, 0 other)\n" in out
    assert "other:" not in out


@pytest.mark.parametrize(
    "line, old, new, split",
    [
        (1, "optimal_expectation=1.3", "optimal_expectation=1.2", "0 structural, 1 worse E*"),
        (1, "optimal_expectation=1.3", "optimal_expectation=1.4",
         "0 structural, 0 worse E*, 1 better E*"),
        (2, "principal_payoff=3.8", "principal_payoff=3.7", "0 structural, 1 worse E*"),
        (0, "), Maximizer(effort=0.75, kind=<MaximizerKind.INTERIOR_CRITICAL: "
            "'interior_critical'>, expectation=1.5))", ",)", "1 structural"),
        (1, "accepted=True", "accepted=False", "1 structural"),
        (2, "wages=(4.0, 0.0)", "wages=(3.5, 0.0)", "1 structural"),
        (3, "DimensionError", "ContractGameError", "1 structural"),
        (1, "effort=0.5", "effort=0.6", "0 structural, 0 worse E*, 0 better E*, 1 other"),
    ],
    ids=[
        "lower-expectation", "higher-expectation", "lower-principal-payoff",
        "dropped-maximizer", "acceptance", "winner", "error-type", "effort",
    ],
)
def test_one_changed_keyed_line_is_classified(tmp_path, line, old, new, split):
    lines = list(KEYED)
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new, 1)
    code, out = _compare_keyed(tmp_path, lines)
    name = KEYED[line].split(" ", 1)[0]
    assert code == 1
    assert f"{name}: 1 of " in out
    assert " lines differ (0 last-bit, 1 other)\n  other: " + split in out


def test_inserted_line_shifts_no_later_pair(tmp_path):
    inserted = "agent 4199/9\tBestResponse(maximizers=(), optimal_expectation=0.0, accepted=False)"
    code, out = _compare_keyed(tmp_path, (inserted, *KEYED))
    assert code == 1
    assert "agent: 1 of 3 lines differ (0 last-bit, 1 other)\n  other: 1 structural, 0 worse" in out
    assert "families: 0 of 1 lines differ" in out and "principal: 0 of 1 lines differ" in out
    assert "length: 4 lines old, 5 new" in out
