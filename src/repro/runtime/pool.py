"""Chunked process-pool dispatch with a deterministic inline fallback.

:func:`run_parallel` is the one dispatch primitive: apply a module-level
function to a list of argument tuples, fanning the work out over a
``ProcessPoolExecutor`` when ``jobs > 1`` and the platform supports
``fork``, and falling back to a plain in-order loop otherwise.  The two
paths produce identical results (see :mod:`repro.runtime.merge`).

Each experiment runner builds its own task tuples — a configuration
cell, a baseline-system name, a fuzz cell index — and derives any
per-task seed itself (:func:`repro.runtime.seeds.trial_seed`), so a
task's randomness never depends on which worker ran it.

Functions dispatched here must be picklable (defined at module top
level); with the ``fork`` start method they are pickled by reference,
so closures over module state are fine but lambdas are not.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .merge import merge_ordered

__all__ = [
    "available_cpus",
    "resolve_jobs",
    "run_parallel",
    "last_run_mode",
]

#: Chunks submitted per worker: small enough to amortise IPC, large
#: enough that an uneven chunk cannot idle the rest of the pool long.
_CHUNKS_PER_JOB = 4


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return available_cpus()
    if jobs < 0:
        raise ValueError(f"jobs must be positive (or 0 for all CPUs), got {jobs}")
    return jobs


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


#: How the most recent :func:`run_parallel` call actually executed:
#: ``"pool"``, ``"inline"`` (1 job / 1 task — expected), or
#: ``"inline-fallback"`` (parallelism was requested but unavailable).
_last_run_mode: Optional[str] = None


def last_run_mode() -> Optional[str]:
    """Effective execution mode of the most recent ``run_parallel`` call
    in this process (``None`` before the first call)."""
    return _last_run_mode


def _run_chunk(
    fn: Callable[..., Any], start: int, chunk: Sequence[Tuple[Any, ...]]
) -> List[Tuple[int, Any]]:
    """Worker body: apply ``fn`` to a contiguous slice, tagging indexes."""
    return [(start + i, fn(*task)) for i, task in enumerate(chunk)]


def _chunked(
    tasks: Sequence[Tuple[Any, ...]], jobs: int
) -> List[Tuple[int, Sequence[Tuple[Any, ...]]]]:
    size = max(1, len(tasks) // (jobs * _CHUNKS_PER_JOB))
    return [(start, tasks[start:start + size]) for start in range(0, len(tasks), size)]


def _run_inline(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    mode: str,
    reason: Optional[str] = None,
) -> List[Any]:
    global _last_run_mode
    _last_run_mode = mode
    if reason is not None:
        warnings.warn(
            f"run_parallel: falling back to inline execution ({reason}); "
            f"results are identical but wall-clock speedup is lost",
            RuntimeWarning,
            stacklevel=3,
        )
    return [fn(*task) for task in tasks]


def run_parallel(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """``[fn(*task) for task in tasks]``, fanned over ``jobs`` processes.

    Results come back in task order regardless of completion order.
    Runs inline (no pool, no pickling) when the effective job count is
    1 or there is at most one task.  When parallelism *was* requested
    but the platform lacks ``fork`` (or pool creation is denied), the
    call still runs inline — with the same results — but emits a
    ``RuntimeWarning`` and records the fact, observable via
    :func:`last_run_mode`, so a silently serial "parallel" run cannot
    masquerade as a pooled one.

    Exceptions raised by ``fn`` propagate to the caller on both paths;
    on the pooled path the first failing chunk cancels all not-yet-
    started chunks and shuts the pool down rather than draining doomed
    work.
    """
    global _last_run_mode
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return _run_inline(fn, tasks, "inline")
    if not _fork_available():
        return _run_inline(
            fn,
            tasks,
            "inline-fallback",
            reason=f"the 'fork' start method is unavailable on this "
            f"platform, cannot honour jobs={jobs}",
        )

    chunks = _chunked(tasks, jobs)
    context = multiprocessing.get_context("fork")
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), mp_context=context
        )
    except (OSError, PermissionError) as exc:
        return _run_inline(
            fn,
            tasks,
            "inline-fallback",
            reason=f"process pool creation failed "
            f"({type(exc).__name__}: {exc})",
        )
    _last_run_mode = "pool"
    futures = [pool.submit(_run_chunk, fn, start, chunk) for start, chunk in chunks]
    indexed: List[Tuple[int, Any]] = []
    try:
        for future in as_completed(futures):
            indexed.extend(future.result())
    except BaseException:
        # Fail fast: the caller gets the first exception immediately
        # instead of waiting for every remaining chunk to run to
        # completion and be thrown away.
        for pending in futures:
            pending.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return merge_ordered(indexed, expected=len(tasks))
