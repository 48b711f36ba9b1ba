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


def _reach_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ledger_check_names_every_disagreement(tmp_path):
    reach = _reach_module()
    source = tmp_path / "pkg"
    source.mkdir()
    (source / "mod.py").write_text(
        "def ran():\n    pass\n\n\n"
        "def planted():\n    def inner():\n        pass\n\n\n"
        "class Box:\n    def listed(self):\n        pass\n"
    )
    seen = {(str((source / "mod.py").resolve()), 1)}  # only ran() ran
    report, ran = reach.unreached(source, seen)
    ledger = tmp_path / "reasons.txt"
    ledger.write_text(
        "# comment\n"
        "pkg/mod.py:Box.listed  debug: a reason\n"
        "pkg/mod.py:ran  failure-path: it ran after all\n"
        "pkg/mod.py:gone  ROADMAP 8(a): deleted since\n"
        "pkg/mod.py:planted.inner  reference: inside an unreached function\n"
        "pkg/mod.py:Box.listed  debug: twice\n"
        "pkg/mod.py:other  tests call it\n"
    )
    reasons, problems = reach.read_ledger(ledger)
    assert set(reasons) == {"pkg/mod.py:Box.listed", "pkg/mod.py:ran",
                            "pkg/mod.py:gone", "pkg/mod.py:planted.inner"}
    assert [p.split(": ", 1)[1] for p in problems] == [
        "listed twice: pkg/mod.py:Box.listed",
        "no known reason kind: pkg/mod.py:other  tests call it",
    ]
    assert reach.check_ledger(report, ran, reasons) == [
        "unreached and unlisted: pkg/mod.py:planted",
        "listed but gone: pkg/mod.py:gone",
        "listed inside an unreached function: pkg/mod.py:planted.inner",
        "listed but ran: pkg/mod.py:ran",
    ]


def test_every_ledger_line_names_a_function_with_a_known_reason():
    """The committed ledger parses, and every line still names a function
    under src/repro: a deletion removes its line in the same change.  (The
    full gate, which runs the entries, is `python3 tools/reach.py`.)"""
    reach = _reach_module()
    reasons, problems = reach.read_ledger(reach.LEDGER)
    assert problems == [] and reasons
    _report, ran = reach.unreached(ROOT / "src" / "repro", set())
    assert sorted(set(reasons) - set(ran)) == []
