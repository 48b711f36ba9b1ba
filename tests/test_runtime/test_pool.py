"""Tests for the parallel dispatch layer.

The load-bearing property throughout: for every helper, ``jobs=N``
returns exactly what ``jobs=1`` returns, for any ``N``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro import runtime
from repro.experiments.validation import simulate_cell
from repro.runtime import resolve_jobs, run_parallel


# Module-level workers: picklable by reference, as the pool requires.
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
        assert resolve_jobs(None) == resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


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

    def test_failed_pooled_run_lets_the_process_exit_promptly(self):
        # Not only the exception but the whole process must be done
        # early: the tasks still queued or sleeping when task 0 failed
        # must not be waited for at interpreter exit (draining them took
        # ~8 s).  Timed as a fresh interpreter, start-up included.
        script = (
            "from repro.runtime import run_parallel\n"
            "from tests.test_runtime.test_pool import _sleep_or_boom\n"
            "try:\n"
            "    run_parallel(_sleep_or_boom, [(i,) for i in range(8)], jobs=2)\n"
            "except RuntimeError:\n"
            "    pass\n"
        )
        root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.monotonic() - started
        assert done.returncode == 0, done.stderr
        assert elapsed < 3.0, f"process exited after {elapsed:.2f} s"


class TestRunMode:
    def test_single_job_is_inline_and_silent(self, recwarn):
        run_parallel(_square, [(1,), (2,)], jobs=1)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_single_task_is_inline_and_silent(self, recwarn):
        run_parallel(_square, [(1,)], jobs=4)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_pooled_run_records_pool_mode(self, recwarn):
        # A pooled run that got its pool says nothing.
        assert run_parallel(_square, [(i,) for i in range(8)], jobs=2) == [
            i * i for i in range(8)
        ]
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_fork_unavailable_warns_and_records_fallback(self, monkeypatch):
        def unavailable(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(runtime.multiprocessing, "get_context", unavailable)
        tasks = [(i,) for i in range(6)]
        with pytest.warns(RuntimeWarning, match="falling back to inline.*ValueError"):
            results = run_parallel(_square, tasks, jobs=4)
        assert results == [i * i for i in range(6)]

    def test_pool_creation_failure_warns_and_records_fallback(
        self, monkeypatch
    ):
        def denied(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(runtime, "Pool", denied)
        tasks = [(i,) for i in range(6)]
        with pytest.warns(RuntimeWarning, match="falling back to inline"):
            results = run_parallel(_square, tasks, jobs=4)
        assert results == [i * i for i in range(6)]

    def test_fallback_warning_names_exception_class(self, monkeypatch):
        def denied(*args, **kwargs):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(runtime, "Pool", denied)
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


class TestAvailableCpus:
    """``resolve_jobs(0)`` must count the CPUs this process may *use*
    (the affinity mask a cgroup-limited CI runner pins), not the host's
    raw core count — otherwise the ``--jobs 0`` default oversubscribes
    the container."""

    def test_respects_affinity_mask(self, monkeypatch):
        import os as os_module

        monkeypatch.setattr(
            os_module, "sched_getaffinity", lambda pid: {0, 2, 5},
            raising=False,
        )
        monkeypatch.setattr(os_module, "cpu_count", lambda: 64)
        assert resolve_jobs(0) == 3

    def test_empty_mask_clamps_to_one(self, monkeypatch):
        import os as os_module

        monkeypatch.setattr(
            os_module, "sched_getaffinity", lambda pid: set(), raising=False
        )
        assert resolve_jobs(0) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import os as os_module

        def unavailable(pid):
            raise AttributeError("no sched_getaffinity on this platform")

        monkeypatch.setattr(
            os_module, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(os_module, "cpu_count", lambda: 7)
        assert resolve_jobs(0) == 7
