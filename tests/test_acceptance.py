"""Acceptance gate: every criterion at its stated tolerance, one line each.

Runs the shared selftest checks on the full desk-scale profile.  A failing
criterion prints its measured values.  README.md ("Install and test")
explains why the tail-law criterion (6) cannot hold at desk scale.
"""

import json
import subprocess
import sys

import pytest

from kpztail import selftest

# `pytest -m "not acceptance"` runs the unit suite alone
pytestmark = pytest.mark.acceptance


def run_and_report(criterion: int) -> selftest.CheckResult:
    result = selftest.CHECKS[criterion](selftest.FULL)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.criterion} ({result.name}): {status} - {result.detail}")
    return result


def test_criterion_1_exact_constants():
    result = run_and_report(1)
    assert result.passed, result.detail


def test_criterion_2_spectral():
    result = run_and_report(2)
    assert result.passed, result.detail


def test_criterion_3_solver_consistency():
    result = run_and_report(3)
    assert result.passed, result.detail


def test_criterion_4_operator_norm_bound():
    result = run_and_report(4)
    assert result.passed, result.detail


def test_criterion_5_rearrangement_suite():
    result = run_and_report(5)
    assert result.passed, result.detail


def test_criterion_6_tail_law():
    result = run_and_report(6)
    assert result.passed, result.detail


def test_criterion_7_limit_shape():
    result = run_and_report(7)
    assert result.passed, result.detail


def test_criterion_8_bridge_machinery():
    result = run_and_report(8)
    assert result.passed, result.detail


def test_criterion_9_reproducibility(tmp_path):
    result = run_and_report(9)
    assert result.passed, result.detail
    # the CLI path: two runs with one config give byte-identical CSV bodies
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "kpztail.cli", "selftest", "--quick",
             "--criteria", "1,5", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out)
    for rel in ("criterion_1/constants.csv", "criterion_5/rearrangement.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    summary = json.loads((outs[0] / "selftest_summary.json").read_text())
    assert summary["all_passed"]
    print("criterion 9 (cli reproducibility): PASS - byte-identical CSV bodies, exit 0")
