"""``tools/ab_pairs.py`` refuses a run with nothing to compare, and shows
what each run drew of ``live_miss``'s principal pool.

Zero pairs used to end in an ``IndexError`` inside ``quartiles([])``
after the benchmark had been set up.  A bad count or window is now a
usage error (exit 2, naming the flag) before any benchmark runs: the
``--parent`` checkout below does not exist, so reaching a run would
fail differently.

A ``live_miss`` run that draws the whole pool fails ("ran out of unused
principals"), so each run's line shows its ``attempted`` count and, for
``live_miss``, the share of the pool it drew with the warm-up; the fake
checkouts below stand in for ``bench_e2e``.
"""

from __future__ import annotations

import json
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


FAKE_MAIN = """
import json, pathlib, sys
attempted = int(pathlib.Path("ATTEMPTED").read_text())
print(json.dumps({"metrics": {"req_per_s": {"value": attempted / 20}}, "failed": 0,
                  "attempted": attempted}))
"""
FAKE_SPEC = """
class _Size:
    miss_pool, miss_warmup = 1000, 50

def sizing(seconds, smoke=False):
    return _Size()
"""


def _fake_checkout(root, attempted):
    """A checkout whose ``bench_e2e`` measures ``attempted`` operations
    and seeds 1 000 ``live_miss`` principals, 50 of them for warm-up."""
    (root / "bench_e2e").mkdir(parents=True)
    (root / "bench_e2e" / "__init__.py").write_text("")
    (root / "bench_e2e" / "__main__.py").write_text(FAKE_MAIN)
    (root / "bench_e2e" / "spec.py").write_text(FAKE_SPEC)
    (root / "ATTEMPTED").write_text(str(attempted))
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "req_per_s", "better": "higher"}]}'
    )
    return root


@pytest.mark.parametrize("workload", ["live_miss", "sim_cell"])
def test_each_run_shows_what_it_drew_of_the_pool(workload, tmp_path):
    parent = _fake_checkout(tmp_path / "parent", 500)
    change = _fake_checkout(tmp_path / "change", 920)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change),
         "--workload", workload, "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    parent_line = next(line for line in lines if line.startswith("pair  1 parent"))
    change_line = next(line for line in lines if line.startswith("pair  1 change"))
    assert "attempted=500" in parent_line and "attempted=920" in change_line
    runs = json.loads(lines[-1])["runs"]
    if workload == "live_miss":
        assert parent_line.endswith("pool=55.0%")  # (500 + 50) / 1 000
        assert change_line.endswith("pool=97.0% NEAR POOL END")
        assert runs["change"][0]["pool_share"] == pytest.approx(0.97)
    else:
        assert "pool=" not in done.stdout
        assert "pool_share" not in runs["change"][0]
