"""``tools/ab_pairs.py`` refuses a run with nothing to compare.

Zero pairs used to end in an ``IndexError`` inside ``quartiles([])``
after the benchmark had been set up.  A bad count or window is now a
usage error (exit 2, naming the flag) before any benchmark runs: the
``--parent`` checkout below does not exist, so reaching a run would
fail differently.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--pairs", "0"], "--pairs"),
        (["--pairs", "-3"], "--pairs"),
        (["--seconds", "0"], "--seconds"),
        (["--seconds", "nan"], "--seconds"),
    ],
)
def test_empty_run_exits_2_naming_the_flag(argv, flag, tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(tmp_path / "missing"),
         "--change", str(TOOL.parent.parent), "--workload", "sim_cell",
         "--seed", "1"] + argv,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert f"argument {flag}:" in done.stderr
    assert done.stdout == ""
