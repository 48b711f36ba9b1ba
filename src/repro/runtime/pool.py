"""Chunked process-pool dispatch with a deterministic inline fallback.

:func:`run_parallel` is the primitive: apply a module-level function to
a list of argument tuples, fanning the work out over a
``ProcessPoolExecutor`` when ``jobs > 1`` and the platform supports
``fork``, and falling back to a plain in-order loop otherwise.  The two
paths produce identical results (see :mod:`repro.runtime.merge`).

With a ``reduce=`` hook the shape changes from *gather* to *fold*: each
worker folds its own chunk down to a single partial before crossing the
process boundary, so IPC payload is O(1) per chunk instead of
O(results), and the parent combines the partials in task order via
:func:`repro.runtime.merge.combine_partials`.  ``reduce`` must be
associative — that is the whole contract that makes chunked folding
identical to the sequential left fold.

:func:`run_trials` and :func:`run_replications` are the two shapes the
experiment layer actually uses:

* ``run_trials(fn, configs, trials, seed, jobs)`` — one unit of work
  per *configuration cell* (a ``(m, C, pi)`` tuple, a baseline-system
  name, ...), each running its own ``trials``-replication study with
  the shared master ``seed``.  This parallelises a sweep without
  perturbing any cell's internal randomness, so tables come out
  byte-identical to the sequential loop.
* ``run_replications(fn, trials, seed, jobs)`` — one unit of work per
  *trial*, each handed ``trial_seed(seed, i)``; for experiments whose
  replications are fully independent.

Functions dispatched here must be picklable (defined at module top
level); with the ``fork`` start method they are pickled by reference,
so closures over module state are fine but lambdas are not.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .merge import _MISSING, combine_partials, merge_ordered
from .seeds import trial_seed

__all__ = [
    "available_cpus",
    "resolve_jobs",
    "run_parallel",
    "run_trials",
    "run_replications",
    "last_run_mode",
    "last_ipc_bytes",
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

#: Pickled size of the per-chunk result payloads of the most recent
#: ``measure_ipc=True`` call (``None`` otherwise).  On the inline path
#: the same chunking is simulated so pooled and inline runs report
#: comparable numbers.
_last_ipc_bytes: Optional[int] = None


def last_run_mode() -> Optional[str]:
    """Effective execution mode of the most recent ``run_parallel`` call
    in this process (``None`` before the first call)."""
    return _last_run_mode


def last_ipc_bytes() -> Optional[int]:
    """Total pickled bytes of worker→parent result payloads for the most
    recent ``run_parallel(measure_ipc=True)`` call, or ``None`` if the
    last call did not measure."""
    return _last_ipc_bytes


def _fold(
    reduce: Callable[[Any, Any], Any], values: Sequence[Any], initial: Any
) -> Any:
    if initial is _MISSING:
        if not values:
            raise ValueError(
                "run_parallel with reduce= needs at least one task or an "
                "initial= value"
            )
        return functools.reduce(reduce, values)
    return functools.reduce(reduce, values, initial)


def _run_chunk(
    fn: Callable[..., Any], start: int, chunk: Sequence[Tuple[Any, ...]]
) -> List[Tuple[int, Any]]:
    """Worker body: apply ``fn`` to a contiguous slice, tagging indexes."""
    return [(start + i, fn(*task)) for i, task in enumerate(chunk)]


def _run_chunk_reduced(
    fn: Callable[..., Any],
    start: int,
    chunk: Sequence[Tuple[Any, ...]],
    reduce: Callable[[Any, Any], Any],
) -> Tuple[int, int, Any]:
    """Worker body in reduce mode: fold the chunk before returning.

    The fold runs strictly in task order and starts from the chunk's
    first value (never from the caller's ``initial``, which the parent
    applies exactly once) so chunk boundaries cannot change the result
    of an associative reduce.
    """
    values = [fn(*task) for task in chunk]
    return (start, len(values), functools.reduce(reduce, values))


def _chunked(
    tasks: Sequence[Tuple[Any, ...]], jobs: int, chunk_size: Optional[int]
) -> List[Tuple[int, Sequence[Tuple[Any, ...]]]]:
    if chunk_size is None:
        chunk_size = max(1, len(tasks) // (jobs * _CHUNKS_PER_JOB))
    elif chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        (start, tasks[start:start + chunk_size])
        for start in range(0, len(tasks), chunk_size)
    ]


def _payload_bytes(payloads: Sequence[Any]) -> int:
    return sum(len(pickle.dumps(payload)) for payload in payloads)


def _run_inline(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    mode: str,
    reason: Optional[str] = None,
    reduce: Optional[Callable[[Any, Any], Any]] = None,
    initial: Any = _MISSING,
    measure_ipc: bool = False,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> Any:
    global _last_run_mode, _last_ipc_bytes
    _last_run_mode = mode
    if reason is not None:
        warnings.warn(
            f"run_parallel: falling back to inline execution ({reason}); "
            f"results are identical but wall-clock speedup is lost",
            RuntimeWarning,
            stacklevel=3,
        )
    values = [fn(*task) for task in tasks]
    if measure_ipc:
        # Simulate the pooled chunking so inline and pooled runs report
        # comparable worker→parent payload sizes.
        chunks = _chunked(tasks, max(jobs, 1), chunk_size)
        if reduce is None:
            payloads: List[Any] = [
                [(start + i, values[start + i]) for i in range(len(chunk))]
                for start, chunk in chunks
            ]
        else:
            payloads = [
                (
                    start,
                    len(chunk),
                    functools.reduce(reduce, values[start:start + len(chunk)]),
                )
                for start, chunk in chunks
            ]
        _last_ipc_bytes = _payload_bytes(payloads)
    else:
        _last_ipc_bytes = None
    if reduce is None:
        return values
    return _fold(reduce, values, initial)


def run_parallel(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    reduce: Optional[Callable[[Any, Any], Any]] = None,
    initial: Any = _MISSING,
    measure_ipc: bool = False,
) -> Any:
    """``[fn(*task) for task in tasks]``, fanned over ``jobs`` processes.

    Results come back in task order regardless of completion order.
    Runs inline (no pool, no pickling) when the effective job count is
    1 or there is at most one task.  When parallelism *was* requested
    but the platform lacks ``fork`` (or pool creation is denied), the
    call still runs inline — with the same results — but emits a
    ``RuntimeWarning`` and records the fact, observable via
    :func:`last_run_mode`, so a silently serial "parallel" run cannot
    masquerade as a pooled one.

    With ``reduce=`` the return value is the fold of all results
    (seeded with ``initial`` when given) instead of the list; workers
    fold their own chunks first, so only one partial per chunk crosses
    the process boundary.  ``reduce`` must be associative for pooled
    and sequential runs to agree.

    ``measure_ipc=True`` records the pickled size of the worker→parent
    result payloads (simulated chunk-for-chunk on the inline path),
    readable afterwards via :func:`last_ipc_bytes`.

    Exceptions raised by ``fn`` propagate to the caller on both paths;
    on the pooled path the first failing chunk cancels all not-yet-
    started chunks and shuts the pool down rather than draining doomed
    work.
    """
    global _last_run_mode, _last_ipc_bytes
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    inline = functools.partial(
        _run_inline,
        fn,
        tasks,
        reduce=reduce,
        initial=initial,
        measure_ipc=measure_ipc,
        jobs=jobs,
        chunk_size=chunk_size,
    )
    if jobs <= 1 or len(tasks) <= 1:
        return inline("inline")
    if not _fork_available():
        return inline(
            "inline-fallback",
            reason=f"the 'fork' start method is unavailable on this "
            f"platform, cannot honour jobs={jobs}",
        )

    chunks = _chunked(tasks, jobs, chunk_size)
    context = multiprocessing.get_context("fork")
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), mp_context=context
        )
    except (OSError, PermissionError) as exc:
        return inline(
            "inline-fallback",
            reason=f"process pool creation failed "
            f"({type(exc).__name__}: {exc})",
        )
    _last_run_mode = "pool"
    if reduce is None:
        futures = [
            pool.submit(_run_chunk, fn, start, chunk) for start, chunk in chunks
        ]
    else:
        futures = [
            pool.submit(_run_chunk_reduced, fn, start, chunk, reduce)
            for start, chunk in chunks
        ]
    payloads: List[Any] = []
    try:
        for future in as_completed(futures):
            payloads.append(future.result())
    except BaseException:
        # Fail fast: the caller gets the first exception immediately
        # instead of waiting for every remaining chunk to run to
        # completion and be thrown away.
        for pending in futures:
            pending.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    _last_ipc_bytes = _payload_bytes(payloads) if measure_ipc else None
    if reduce is None:
        indexed: List[Tuple[int, Any]] = []
        for payload in payloads:
            indexed.extend(payload)
        return merge_ordered(indexed, expected=len(tasks))
    return combine_partials(payloads, reduce, expected=len(tasks), initial=initial)


def run_trials(
    fn: Callable[[Any, int, int], Any],
    configs: Sequence[Any],
    trials: int,
    seed: int,
    jobs: Optional[int] = 1,
    reduce: Optional[Callable[[Any, Any], Any]] = None,
    initial: Any = _MISSING,
) -> Any:
    """Run ``fn(config, trials, seed)`` for every config, in config order.

    The shared helper behind the experiment sweeps: each configuration
    cell is an independent unit of work whose randomness is a function
    of ``(config, trials, seed)`` alone, so any ``jobs`` value yields
    the same result the sequential ``for config in configs`` loop
    would.  ``reduce``/``initial`` are forwarded to
    :func:`run_parallel`, turning the sweep into an in-worker fold.
    """
    return run_parallel(
        fn,
        [(config, trials, seed) for config in configs],
        jobs,
        reduce=reduce,
        initial=initial,
    )


def run_replications(
    fn: Callable[[int, int], Any],
    trials: int,
    seed: int,
    jobs: Optional[int] = 1,
    label: str = "trial",
    reduce: Optional[Callable[[Any, Any], Any]] = None,
    initial: Any = _MISSING,
) -> Any:
    """Run ``fn(trial_index, trial_seed)`` for trials ``0 .. trials-1``.

    Per-trial fan-out for fully independent replications; trial ``i``
    always receives :func:`repro.runtime.seeds.trial_seed(seed, i)
    <repro.runtime.seeds.trial_seed>` no matter which worker runs it.
    ``reduce``/``initial`` fold the per-trial results in-worker exactly
    as in :func:`run_parallel`.
    """
    tasks = [(i, trial_seed(seed, i, label=label)) for i in range(trials)]
    return run_parallel(fn, tasks, jobs, reduce=reduce, initial=initial)
