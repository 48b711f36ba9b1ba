"""Tests for the parallel dispatch layer and result merging.

The load-bearing property throughout: for every helper, ``jobs=N``
returns exactly what ``jobs=1`` returns, for any ``N``.
"""

from __future__ import annotations

import functools
import operator
import time

import pytest

from repro.experiments.validation import simulate_cell
from repro.metrics.streaming import StreamingSummary
from repro.runtime.merge import (
    MergeError,
    combine_partials,
    merge_counts,
    merge_ordered,
)
from repro.runtime.pool import (
    _chunked,
    available_cpus,
    last_ipc_bytes,
    last_run_mode,
    resolve_jobs,
    run_parallel,
    run_replications,
    run_trials,
)
from repro.runtime.seeds import trial_seed


# Module-level workers: picklable under the fork start method.
def _square(x):
    return x * x


def _seeded_trial(trial_index, seed):
    # A toy trial whose result depends on both the index and the
    # derived seed, so misrouted seeds or indexes are visible.
    return (trial_index, seed % 1_000_003)


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _config_cell(config, trials, seed):
    return (config, trials, seed)


def _token(x):
    return f"<{x}>"


def _wide_row(x):
    # A deliberately bulky per-task result so the reduce path's IPC
    # saving is visible in pickled bytes.
    return [(x, float(x))] * 64


def _summary_of(trial_index, seed):
    summary = StreamingSummary(seed=seed, capacity=64)
    summary.add(float(trial_index))
    summary.add(float(trial_index) * 0.5)
    return summary


def _merge_summaries(a, b):
    return a.merge(b)


def _keep_first(a, _b):
    return a


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
        tasks = [(i,) for i in range(10)]
        chunks = _chunked(tasks, jobs=2, chunk_size=3)
        rebuilt = []
        for start, chunk in chunks:
            assert tasks[start:start + len(chunk)] == list(chunk)
            rebuilt.extend(chunk)
        assert rebuilt == tasks

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            _chunked([(1,)], jobs=1, chunk_size=0)


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
        # Fail-fast satellite: the failing chunk's exception must reach
        # the caller promptly, not after every surviving chunk finished
        # its 4-second sleep (draining 7 sleepers over 2 workers would
        # take ~16s).
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="boom 0"):
            run_parallel(
                _sleep_or_boom, [(i,) for i in range(8)], jobs=2, chunk_size=1
            )
        assert time.monotonic() - started < 3.0


class TestReducePath:
    """``reduce=`` folds in-worker; pooled folds equal sequential ones."""

    def test_inline_fold_matches_functools_reduce(self):
        tasks = [(i,) for i in range(20)]
        expected = functools.reduce(operator.add, [i * i for i in range(20)])
        assert run_parallel(_square, tasks, jobs=1, reduce=operator.add) == expected

    def test_pool_fold_matches_inline(self):
        tasks = [(i,) for i in range(37)]
        assert run_parallel(
            _square, tasks, jobs=4, reduce=operator.add
        ) == run_parallel(_square, tasks, jobs=1, reduce=operator.add)

    def test_ordered_noncommutative_reduce_survives_chunking(self):
        # String concatenation is associative but not commutative, so a
        # chunk folded out of order or merged in completion order would
        # scramble the result.
        tasks = [(i,) for i in range(23)]
        expected = "".join(_token(i) for i in range(23))
        assert run_parallel(_token, tasks, jobs=1, reduce=operator.add) == expected
        assert (
            run_parallel(_token, tasks, jobs=4, chunk_size=3, reduce=operator.add)
            == expected
        )

    def test_initial_applied_exactly_once(self):
        tasks = [(i,) for i in range(16)]
        expected = 100 + sum(i * i for i in range(16))
        for jobs in (1, 4):
            assert (
                run_parallel(
                    _square, tasks, jobs=jobs, reduce=operator.add, initial=100
                )
                == expected
            )

    def test_empty_tasks_return_initial(self):
        assert run_parallel(_square, [], jobs=4, reduce=operator.add, initial=7) == 7

    def test_empty_tasks_without_initial_raise(self):
        with pytest.raises(ValueError, match="initial"):
            run_parallel(_square, [], jobs=1, reduce=operator.add)

    def test_mergeable_accumulators_jobs_invariant(self):
        sequential = run_replications(
            _summary_of, trials=24, seed=9, jobs=1, reduce=_merge_summaries
        )
        pooled = run_replications(
            _summary_of, trials=24, seed=9, jobs=4, reduce=_merge_summaries
        )
        assert pooled == sequential
        assert pooled.summary() == sequential.summary()

    def test_run_trials_reduce_jobs_invariant(self):
        configs = list(range(11))
        assert run_trials(
            _config_cell, configs, 5, 1, jobs=4, reduce=_keep_first
        ) == run_trials(_config_cell, configs, 5, 1, jobs=1, reduce=_keep_first)


class TestIpcMeasurement:
    def test_unmeasured_call_reports_none(self):
        run_parallel(_square, [(1,), (2,)], jobs=1)
        assert last_ipc_bytes() is None

    def test_inline_measurement_simulates_chunking(self):
        run_parallel(_wide_row, [(i,) for i in range(16)], jobs=2, measure_ipc=True)
        assert last_ipc_bytes() > 0

    def test_reduce_shrinks_payload(self):
        tasks = [(i,) for i in range(32)]
        for jobs in (1, 4):
            run_parallel(_wide_row, tasks, jobs=jobs, measure_ipc=True)
            raw = last_ipc_bytes()
            run_parallel(
                _wide_row,
                tasks,
                jobs=jobs,
                reduce=operator.add,
                measure_ipc=True,
            )
            reduced = last_ipc_bytes()
            # Concatenating rows keeps all elements but drops the
            # per-task framing; a genuinely mergeable accumulator does
            # far better (see the bench suite's sweep_reduce cell).
            assert reduced < raw

    def test_pool_and_inline_measure_comparably(self):
        tasks = [(i,) for i in range(32)]
        run_parallel(_wide_row, tasks, jobs=1, chunk_size=4, measure_ipc=True)
        inline = last_ipc_bytes()
        run_parallel(_wide_row, tasks, jobs=4, chunk_size=4, measure_ipc=True)
        pooled = last_ipc_bytes()
        assert inline == pooled


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


class TestRunTrials:
    def test_passes_config_trials_seed(self):
        configs = ["a", "b", "c"]
        assert run_trials(_config_cell, configs, 10, 99, jobs=1) == [
            ("a", 10, 99), ("b", 10, 99), ("c", 10, 99)
        ]

    def test_jobs_invariance(self):
        configs = list(range(9))
        assert run_trials(_config_cell, configs, 5, 1, jobs=4) == run_trials(
            _config_cell, configs, 5, 1, jobs=1
        )


class TestRunReplications:
    def test_trial_gets_its_derived_seed(self):
        results = run_replications(_seeded_trial, trials=6, seed=3, jobs=1)
        assert results == [
            (i, trial_seed(3, i) % 1_000_003) for i in range(6)
        ]

    def test_same_seed_and_index_identical_across_jobs_1_and_4(self):
        sequential = run_replications(_seeded_trial, trials=16, seed=5, jobs=1)
        parallel = run_replications(_seeded_trial, trials=16, seed=5, jobs=4)
        assert parallel == sequential


class TestProtocolLevelInvariance:
    """The real experiment path: full protocol cells through the pool."""

    def test_validation_cells_identical_across_jobs_1_and_4(self):
        configs = [(3, 1, 0.1), (3, 2, 0.1)]
        sequential = run_trials(simulate_cell, configs, 25, 0, jobs=1)
        parallel = run_trials(simulate_cell, configs, 25, 0, jobs=4)
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


class TestCombinePartials:
    def test_folds_in_task_order(self):
        chunks = [(3, 2, "<3><4>"), (0, 3, "<0><1><2>")]
        assert (
            combine_partials(chunks, operator.add, expected=5) == "<0><1><2><3><4>"
        )

    def test_initial_seeds_the_fold(self):
        chunks = [(0, 2, 5), (2, 2, 7)]
        assert combine_partials(chunks, operator.add, expected=4, initial=100) == 112

    def test_gap_raises(self):
        with pytest.raises(MergeError, match="missing chunk coverage"):
            combine_partials([(0, 2, 1), (3, 1, 2)], operator.add, expected=4)

    def test_overlap_raises(self):
        with pytest.raises(MergeError, match="overlapping chunk coverage"):
            combine_partials([(0, 3, 1), (2, 2, 2)], operator.add, expected=4)

    def test_short_coverage_raises(self):
        with pytest.raises(MergeError, match="were submitted"):
            combine_partials([(0, 2, 1)], operator.add, expected=5)

    def test_empty_count_raises(self):
        with pytest.raises(MergeError, match="count 0"):
            combine_partials([(0, 0, 1)], operator.add, expected=0)

    def test_no_chunks_returns_initial_or_raises(self):
        assert combine_partials([], operator.add, expected=0, initial=9) == 9
        with pytest.raises(MergeError, match="no chunks"):
            combine_partials([], operator.add, expected=0)


class TestMergeCounts:
    def test_elementwise_sum(self):
        assert merge_counts([(1, 10), (2, 10), (3, 10)]) == (6, 30)

    def test_order_independent(self):
        assert merge_counts([(1, 2), (3, 4)]) == merge_counts([(3, 4), (1, 2)])

    def test_width_mismatch_raises(self):
        with pytest.raises(MergeError, match="width"):
            merge_counts([(1, 2), (1, 2, 3)])

    def test_empty(self):
        assert merge_counts([]) == ()


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
