"""Unit tests for the ``repro bench`` cell runner.

Cell *timings* are machine-dependent, so these tests exercise the
deterministic plumbing — the result document and per-op scaling — and
the meta each cell's in-cell assertions rest on.
"""

from __future__ import annotations

import pytest

from repro.experiments.bench import BENCH_SCHEMA, BENCHMARKS, run_suite


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
