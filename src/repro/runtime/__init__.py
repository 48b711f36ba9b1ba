"""Parallel replication runtime.

The experiments in this repository are Monte Carlo studies whose
replications are independent given their seeds — exactly the workload
shape that fans out over processes with no coordination.  This package
is the dispatch layer they share:

``seeds``
    Deterministic derivation of per-trial / per-replication seeds from
    a master seed (extends :mod:`repro.sim.rng`), so a trial's
    randomness depends only on ``(master_seed, trial_index)`` and never
    on which worker ran it.

``pool``
    :func:`run_parallel` ``(fn, tasks, jobs)`` — the one dispatch
    shape: gather ``fn(*task)`` for every task, in task order, over a
    ``ProcessPoolExecutor`` with graceful inline fallback when
    ``jobs=1`` or the platform has no ``forkserver``.

``merge``
    Order-independent result merging: workers return ``(index, value)``
    pairs in completion order; :func:`merge_ordered` restores submission
    order so parallel output is bit-identical to sequential output.

Determinism contract
--------------------
The result of ``jobs=N`` is **identical** to ``jobs=1`` for any ``N``:
work is partitioned by index, each unit's seed is a pure function of
the master seed and the unit's index, and results are re-ordered by
index before they are returned.
"""

from .merge import MergeError, merge_ordered
from .pool import available_cpus, last_run_mode, resolve_jobs, run_parallel
from .seeds import trial_seed

__all__ = [
    "MergeError",
    "available_cpus",
    "last_run_mode",
    "merge_ordered",
    "resolve_jobs",
    "run_parallel",
    "trial_seed",
]
