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
