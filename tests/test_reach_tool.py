"""``tools/reach.py`` on a one-line entry point: the functions it ran are
reached, the ones it never called are listed with their lines, and the
last stdout line is the report; a bad flag is a usage error."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"
ENTRY = "-c 'from repro.analysis.quorum_math import availability; availability(5, 3, 0.1)'"


def test_reports_unreached_function_lines_per_module():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--entry", ENTRY,
         "--src", str(ROOT / "src" / "repro" / "analysis"), "--names"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["entries"] == [ENTRY] and report["failed_entries"] == []
    assert 0 < report["unreached_lines"] < report["function_lines"]
    assert report["modules"]["analysis/costs.py"] > 0  # nothing there ran
    names = [line.split()[-1] for line in done.stdout.splitlines()
             if "analysis/quorum_math.py:" in line]
    assert "best_check_quorum" in names
    assert "availability" not in names and "binomial_tail" not in names


def test_a_failing_entry_exits_1():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--entry", "-c 'raise SystemExit(3)'",
         "--src", str(ROOT / "src" / "repro" / "analysis")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["failed_entries"] == [
        "-c 'raise SystemExit(3)'"
    ]


@pytest.mark.parametrize("argv,flag", [
    (["--top", "-1"], "--top"),
    (["--entry", "  "], "--entry"),
    (["--src", "no/such/dir"], "--src"),
])
def test_bad_flag_exits_2_naming_the_flag(argv, flag):
    done = subprocess.run([sys.executable, str(TOOL)] + argv,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"argument {flag}:" in done.stderr
    assert done.stdout == ""
