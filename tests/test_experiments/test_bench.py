"""Unit tests for the ``repro bench`` gate machinery.

Benchmark *timings* are machine-dependent, so these tests exercise the
deterministic plumbing — document schema, baseline loading for both
supported formats, regression verdicts, and trajectory numbering —
plus one tiny quick run to prove the suite executes end to end.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench import (
    BENCH_SCHEMA,
    BENCHMARKS,
    compare_results,
    load_medians,
    main,
    next_trajectory_path,
    run_suite,
)


class TestRunSuite:
    def test_quick_run_produces_schema_document(self):
        document = run_suite(quick=True, repeats=1, names=["reachable"])
        assert document["schema"] == BENCH_SCHEMA
        assert document["quick"] is True
        entry = document["benchmarks"]["reachable"]
        assert entry["best"] <= entry["median"]
        assert len(entry["samples"]) == 1
        assert entry["size"] == BENCHMARKS["reachable"][2]
        # median/best are per-op: total elapsed divided by workload size.
        assert entry["median"] == entry["samples"][0] / entry["size"]
        assert entry["meta"]["queries"] > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            run_suite(quick=True, repeats=1, names=["nope"])

    def test_nonpositive_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_suite(quick=True, repeats=0)

    def test_every_benchmark_has_quick_and_full_sizes(self):
        for name, (fn, full_size, quick_size) in BENCHMARKS.items():
            assert 0 < quick_size < full_size, name


class TestLoadMedians:
    def test_repro_bench_format_prefers_best(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "benchmarks": {
                        "a": {"median": 2.0, "best": 1.5, "samples": [2.0, 1.5]},
                        "b": {"median": 3.0},
                    },
                }
            )
        )
        assert load_medians(str(path)) == {"a": 1.5, "b": 3.0}

    def test_pytest_benchmark_format(self, tmp_path):
        path = tmp_path / "pytest.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"name": "x", "stats": {"median": 0.25}},
                    ]
                }
            )
        )
        assert load_medians(str(path)) == {"x": 0.25}


class TestCompareResults:
    def test_verdicts_and_regression_list(self):
        baseline = {"fast": 1.0, "slow": 1.0, "steady": 1.0, "gone": 1.0}
        current = {"fast": 0.5, "slow": 1.5, "steady": 1.05, "new": 9.9}
        lines, comparison = compare_results(baseline, current, threshold=0.10)
        assert comparison["_regressions"] == ["slow"]
        assert comparison["slow"]["regressed"] is True
        assert comparison["fast"]["regressed"] is False
        assert comparison["steady"]["regressed"] is False
        text = "\n".join(lines)
        assert "REGRESSION" in text
        assert "improved (50% faster)" in text
        assert "missing from current run" in text
        assert "new benchmark" in text

    def test_exactly_at_threshold_passes(self):
        _, comparison = compare_results({"a": 1.0}, {"a": 1.10}, threshold=0.10)
        assert comparison["_regressions"] == []


class TestTrajectoryNumbering:
    def test_first_free_slot(self, tmp_path):
        assert next_trajectory_path(str(tmp_path)).endswith("BENCH_1.json")
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_2.json").write_text("{}")
        assert next_trajectory_path(str(tmp_path)).endswith("BENCH_3.json")


class TestMainGate:
    def _write_baseline(self, path, benchmarks):
        path.write_text(
            json.dumps({"schema": BENCH_SCHEMA, "benchmarks": benchmarks})
        )

    def test_regression_fails_gate(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        # An absurdly fast baseline forces a REGRESSION verdict.
        self._write_baseline(
            baseline, {"reachable": {"median": 1e-9, "best": 1e-9}}
        )
        rc = main(
            [
                "reachable",
                "--quick",
                "--repeats",
                "1",
                "--baseline",
                str(baseline),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The trajectory artifact is still written on failure.
        artifact = json.loads((tmp_path / "BENCH_1.json").read_text())
        assert artifact["comparison"]["reachable"]["regressed"] is True

    def test_record_overwrites_baseline_and_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        self._write_baseline(
            baseline, {"reachable": {"median": 1e-9, "best": 1e-9}}
        )
        rc = main(
            [
                "reachable",
                "--quick",
                "--repeats",
                "1",
                "--baseline",
                str(baseline),
                "--record",
                "--no-artifact",
            ]
        )
        assert rc == 0
        recorded = json.loads(baseline.read_text())
        assert recorded["schema"] == BENCH_SCHEMA
        assert recorded["benchmarks"]["reachable"]["best"] > 0


class TestNewCells:
    def test_sweep_reduce_meta_proves_ipc_saving(self):
        document = run_suite(quick=True, repeats=1, names=["sweep_reduce"])
        meta = document["benchmarks"]["sweep_reduce"]["meta"]
        assert meta["observations"] > 0
        assert meta["bytes_reduced"] < meta["bytes_raw"]
        # The acceptance bar baked into the cell itself.
        assert meta["ipc_ratio"] >= 2.0

    def test_timer_elision_meta_counts_dead_pops(self):
        document = run_suite(quick=True, repeats=1, names=["timer_elision"])
        meta = document["benchmarks"]["timer_elision"]["meta"]
        assert meta["dead_pops"] == meta["races"] > 0

    def test_batched_fanout_meta(self):
        document = run_suite(quick=True, repeats=1, names=["batched_fanout"])
        meta = document["benchmarks"]["batched_fanout"]["meta"]
        # The shared bench network partitions two nodes off, so most
        # but not all of the fan-out lands.
        assert 0 < meta["delivered"] < meta["rounds"] * meta["fanout"]
        assert meta["delivered"] % meta["rounds"] == 0


class TestListAndRecordMissing:
    def test_list_prints_cells_and_coverage(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "benchmarks": {"reachable": {"median": 1.0, "best": 1.0}},
                }
            )
        )
        rc = main(["--list", "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        for name in BENCHMARKS:
            assert name in out
        assert "MISSING" in out  # every cell but reachable is uncovered
        assert "--record-missing" in out  # the record-on-missing hint

    def test_record_missing_merges_without_touching_existing(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        existing = {"median": 123.0, "best": 123.0}
        baseline.write_text(
            json.dumps(
                {"schema": BENCH_SCHEMA, "benchmarks": {"reachable": existing}}
            )
        )
        rc = main(
            [
                "reachable",
                "timer_elision",
                "--quick",
                "--repeats",
                "1",
                "--retries",
                "0",
                "--baseline",
                str(baseline),
                "--record-missing",
                "--out",
                str(tmp_path),
                "--no-artifact",
            ]
        )
        # reachable regresses against the absurd 123 s baseline?  No —
        # 123 s is huge, so reachable passes easily; the run must merge
        # only the uncovered cell.
        assert rc == 0
        document = json.loads(baseline.read_text())
        assert document["benchmarks"]["reachable"] == existing
        assert "timer_elision" in document["benchmarks"]
        assert document["benchmarks"]["timer_elision"]["best"] > 0


class TestRetryGate:
    def test_flagged_regression_is_remeasured_then_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "benchmarks": {"reachable": {"median": 1e-9, "best": 1e-9}},
                }
            )
        )
        rc = main(
            [
                "reachable",
                "--quick",
                "--repeats",
                "1",
                "--retries",
                "2",
                "--baseline",
                str(baseline),
                "--no-artifact",
            ]
        )
        out = capsys.readouterr().out
        # An impossible baseline cannot be cleared by re-measurement:
        # both retry passes run, then the gate still fails.
        assert rc == 1
        assert "retry 1/2" in out and "retry 2/2" in out

    def test_retries_zero_skips_remeasurement(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": BENCH_SCHEMA,
                    "benchmarks": {"reachable": {"median": 1e-9, "best": 1e-9}},
                }
            )
        )
        rc = main(
            [
                "reachable",
                "--quick",
                "--repeats",
                "1",
                "--retries",
                "0",
                "--baseline",
                str(baseline),
                "--no-artifact",
            ]
        )
        assert rc == 1
        assert "retry" not in capsys.readouterr().out
