"""``tools/retained.py`` at a tiny size: it serves the reads it was asked
for on the benchmark's own cell and reports what they left allocated,
by site, as its last stdout line; a bad count is a usage error."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "retained.py"


def test_reports_retained_bytes_per_read_by_site():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "live_miss", "--reads", "60", "--top", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["workload"] == "live_miss" and report["reads"] >= 60
    assert report["bytes_per_read"] > 0
    assert 0 < len(report["sites"]) <= 5
    assert all(row["site"].rsplit(":", 1)[1].isdigit() for row in report["sites"])
    ranked = [row["bytes_per_read"] for row in report["sites"]]
    assert ranked == sorted(ranked, reverse=True)


@pytest.mark.parametrize("argv,flag", [(["--reads", "0"], "--reads"), (["--top", "-1"], "--top")])
def test_bad_count_exits_2_naming_the_flag(argv, flag):
    done = subprocess.run([sys.executable, str(TOOL)] + argv,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert f"argument {flag}:" in done.stderr
    assert done.stdout == ""
