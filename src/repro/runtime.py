"""Parallel dispatch for independent, seeded cells.

The experiments in this repository are Monte Carlo studies whose cells
are independent given their seeds, and so is a fuzz sweep.  Each runner
builds its own task tuples and derives any per-task seed itself
(:func:`repro.sim.rng.derive_seed`), so a task's randomness never
depends on which worker ran it, and :func:`run_parallel` only gathers.

Functions dispatched here must be picklable (defined at module top
level) and are imported afresh in each worker.  Workers fork from a
single-threaded ``forkserver``, never from the caller, whose executor
threads could hold a lock a forked child then waits on forever.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from multiprocessing.pool import Pool
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = ["resolve_jobs", "run_parallel"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs this
    process may use (affinity-aware where supported)."""
    if jobs is None or jobs == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive (or 0 for all CPUs), got {jobs}")
    return jobs


def run_parallel(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """``[fn(*task) for task in tasks]``, fanned over ``jobs`` processes.

    Results come back in task order.  Runs inline (no pool, no pickling)
    when the effective job count is 1 or there is at most one task.
    When parallelism was requested but the platform has no
    ``forkserver`` or denies the pool, the call warns with a
    ``RuntimeWarning`` naming the cause and runs inline, with the same
    results.

    An exception raised by ``fn`` reaches the caller when its task's
    turn comes in task order, not when it first completes; the pool's
    workers are then terminated, so tasks still running or queued do
    not hold up the caller or its process's exit.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(tasks) > 1:
        try:
            context = multiprocessing.get_context("forkserver")
            # Import the worker's module once, in the server (read at its first start).
            context.set_forkserver_preload([fn.__module__])
            pool = Pool(min(jobs, len(tasks)), context=context)
        except (ValueError, OSError) as exc:
            warnings.warn(
                f"run_parallel: falling back to inline execution "
                f"({type(exc).__name__}: {exc}); results are identical but "
                f"wall-clock speedup is lost",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            with pool:  # leaving terminates the workers, finished or not
                pending = [pool.apply_async(fn, task) for task in tasks]
                return [result.get() for result in pending]
    return [fn(*task) for task in tasks]
