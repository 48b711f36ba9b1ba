"""Tests for the parallel dispatch layer and result merging.

The load-bearing property throughout: for every helper, ``jobs=N``
returns exactly what ``jobs=1`` returns, for any ``N``.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.validation import simulate_cell
from repro.runtime.merge import MergeError, merge_ordered
from repro.runtime.pool import (
    _chunked,
    available_cpus,
    last_run_mode,
    resolve_jobs,
    run_parallel,
)


# Module-level workers: picklable under the fork start method.
def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _sleep_or_boom(x):
    if x == 0:
        raise RuntimeError(f"boom {x}")
    time.sleep(4.0)
    return x


class TestResolveJobs:
    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) == available_cpus()
        assert resolve_jobs(0) == available_cpus()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestChunking:
    def test_covers_all_tasks_contiguously(self):
        tasks = [(i,) for i in range(50)]
        chunks = _chunked(tasks, jobs=2)
        assert len(chunks) > 1
        rebuilt = []
        for start, chunk in chunks:
            assert tasks[start:start + len(chunk)] == list(chunk)
            rebuilt.extend(chunk)
        assert rebuilt == tasks


class TestRunParallel:
    def test_inline_matches_loop(self):
        tasks = [(i,) for i in range(20)]
        assert run_parallel(_square, tasks, jobs=1) == [i * i for i in range(20)]

    def test_pool_matches_inline(self):
        tasks = [(i,) for i in range(37)]
        assert run_parallel(_square, tasks, jobs=4) == run_parallel(
            _square, tasks, jobs=1
        )

    def test_empty_tasks(self):
        assert run_parallel(_square, [], jobs=4) == []

    def test_single_task_stays_inline(self):
        assert run_parallel(_square, [(5,)], jobs=8) == [25]

    def test_worker_exception_propagates_inline(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_parallel(_boom, [(1,)], jobs=1)

    def test_worker_exception_propagates_from_pool(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_parallel(_boom, [(i,) for i in range(8)], jobs=2)

    def test_first_failure_propagates_without_draining(self):
        # The failing chunk's exception must reach the caller promptly,
        # not after every surviving chunk finished its 4-second sleep
        # (draining 7 sleepers over 2 workers would take ~16s).  Eight
        # tasks on two jobs are chunks of one.
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="boom 0"):
            run_parallel(_sleep_or_boom, [(i,) for i in range(8)], jobs=2)
        assert time.monotonic() - started < 3.0


class TestRunMode:
    def test_single_job_is_inline_and_silent(self, recwarn):
        run_parallel(_square, [(1,), (2,)], jobs=1)
        assert last_run_mode() == "inline"
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_single_task_is_inline_and_silent(self, recwarn):
        run_parallel(_square, [(1,)], jobs=4)
        assert last_run_mode() == "inline"
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_pooled_run_records_pool_mode(self):
        run_parallel(_square, [(i,) for i in range(8)], jobs=2)
        assert last_run_mode() == "pool"

    def test_fork_unavailable_warns_and_records_fallback(self, monkeypatch):
        from repro.runtime import pool

        monkeypatch.setattr(pool, "_fork_available", lambda: False)
        tasks = [(i,) for i in range(6)]
        with pytest.warns(RuntimeWarning, match="falling back to inline"):
            results = run_parallel(_square, tasks, jobs=4)
        assert results == [i * i for i in range(6)]
        assert last_run_mode() == "inline-fallback"

    def test_pool_creation_failure_warns_and_records_fallback(
        self, monkeypatch
    ):
        from repro.runtime import pool

        def denied(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", denied)
        tasks = [(i,) for i in range(6)]
        with pytest.warns(RuntimeWarning, match="pool creation failed"):
            results = run_parallel(_square, tasks, jobs=4)
        assert results == [i * i for i in range(6)]
        assert last_run_mode() == "inline-fallback"

    def test_fallback_warning_names_exception_class(self, monkeypatch):
        from repro.runtime import pool

        def denied(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", denied)
        with pytest.warns(
            RuntimeWarning, match=r"PermissionError: no subprocesses here"
        ):
            run_parallel(_square, [(i,) for i in range(4)], jobs=4)


class TestProtocolLevelInvariance:
    """The real experiment path: full protocol cells through the pool."""

    def test_validation_cells_identical_across_jobs_1_and_4(self):
        tasks = [(3, 1, 0.1, 25, 0), (3, 2, 0.1, 25, 0)]
        sequential = run_parallel(simulate_cell, tasks, jobs=1)
        parallel = run_parallel(simulate_cell, tasks, jobs=4)
        assert parallel == sequential

    def test_validation_experiment_renders_byte_identical(self):
        from repro.experiments import validation

        one = validation.run(m=3, cs=(1, 3), pis=(0.1,), trials=20, seed=0, jobs=1)
        four = validation.run(m=3, cs=(1, 3), pis=(0.1,), trials=20, seed=0, jobs=4)
        assert four.render() == one.render()


class TestMergeOrdered:
    def test_restores_submission_order(self):
        assert merge_ordered([(2, "c"), (0, "a"), (1, "b")]) == ["a", "b", "c"]

    def test_duplicate_index_raises(self):
        with pytest.raises(MergeError, match="duplicate"):
            merge_ordered([(0, "a"), (0, "b")])

    def test_missing_index_raises_when_expected_given(self):
        with pytest.raises(MergeError, match="missing"):
            merge_ordered([(0, "a"), (2, "c")], expected=3)

    def test_unexpected_index_raises(self):
        with pytest.raises(MergeError, match="unexpected"):
            merge_ordered([(0, "a"), (5, "x")], expected=2)

    def test_unorderable_values_are_fine(self):
        # Sorting must key on the index alone, never compare values.
        values = [(1, {"b": 2}), (0, {"a": 1})]
        assert merge_ordered(values, expected=2) == [{"a": 1}, {"b": 2}]


class TestAvailableCpus:
    """``available_cpus`` must reflect the CPUs this process may *use*
    (the affinity mask a cgroup-limited CI runner pins), not the host's
    raw core count — otherwise the ``--jobs 0`` default oversubscribes
    the container."""

    def test_respects_affinity_mask(self, monkeypatch):
        import os as os_module

        import repro.runtime.pool as pool_module

        monkeypatch.setattr(
            os_module, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        monkeypatch.setattr(os_module, "cpu_count", lambda: 64)
        assert pool_module.available_cpus() == 3

    def test_empty_mask_clamps_to_one(self, monkeypatch):
        import os as os_module

        monkeypatch.setattr(
            os_module, "sched_getaffinity", lambda pid: set(), raising=False
        )
        assert available_cpus() == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import os as os_module

        def unavailable(pid):
            raise AttributeError("no sched_getaffinity on this platform")

        monkeypatch.setattr(
            os_module, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(os_module, "cpu_count", lambda: 7)
        assert available_cpus() == 7
