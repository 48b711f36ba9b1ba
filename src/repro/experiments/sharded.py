"""sharded: per-shard Figure-5 availability vs the flat analysis.

The sharding tentpole's correctness claim: because every manager group
runs the *unmodified* protocol over its own ``M`` managers, the
availability curve each shard exhibits must be the same Figure-5 curve
the flat ``M``-manager analysis predicts — sharding changes capacity,
not protocol behaviour.

This experiment drives real access checks against every shard of a
``K``-sharded system under i.i.d. Bernoulli(``Pi``) manager
inaccessibility and compares each shard's empirical ``PA`` (with a
Wilson 95% interval) to the analytic ``availability(M, C, Pi)``.  The
test suite asserts the analytic value falls inside every shard's
interval for a fixed seed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.quorum_math import availability
from ..metrics.estimators import wilson_interval
from ..protocols.sharding import ShardRouter
from .base import ExperimentResult, run_grid
from .validation import simulate_pa

__all__ = ["run", "simulate_shard_pa", "app_for_shard"]


def app_for_shard(shards: int, n_managers: int, shard: int) -> str:
    """Deterministically find an application name the ring places on
    ``shard`` (pure function of the ring, so every process agrees)."""
    groups = [
        tuple(f"s{g}m{i}" for i in range(n_managers)) for g in range(shards)
    ]
    router = ShardRouter(groups)
    index = 0
    while True:
        candidate = f"svc{index}"
        if router.shard_of(candidate) == shard:
            return candidate
        index += 1


def simulate_shard_pa(
    m: int, k: int, shard: int, c: int, pi: float, trials: int, seed: int
) -> Tuple[int, int]:
    """One ``(M, K, shard, C, Pi)`` cell: availability counts for
    access checks served by that shard's manager group."""
    return simulate_pa(
        m, c, pi, trials, seed + shard * 101 + c, app_for_shard(k, m, shard), k
    )


def _row(m, _k, shard, c, pi, _trials, _seed, counts) -> List[float]:
    hits, n = counts
    lo, hi = wilson_interval(hits, n)
    return [c, shard, availability(m, c, pi), hits / n, lo, hi]


def run(
    m: int = 3,
    shards: int = 3,
    cs: Sequence[int] = (1, 2, 3),
    pi: float = 0.15,
    trials: int = 300,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Per-shard empirical PA versus the flat ``availability(M, C, Pi)``.

    ``jobs`` fans the (shard, C) cells out over worker processes; any
    value produces byte-identical tables.
    """
    tasks = [
        (m, shards, shard, c, pi, trials, seed)
        for c in cs
        for shard in range(shards)
    ]
    rows = run_grid(simulate_shard_pa, tasks, jobs, _row)
    columns = [
        "C", "shard", "PA analytic", "PA simulated", "ci-low", "ci-high",
    ]
    eps = 1e-9
    all_within = all(
        lo - eps <= pa_true <= hi + eps
        for _c, _shard, pa_true, _pa_hat, lo, hi in rows
    )
    return ExperimentResult(
        experiment_id="sharded",
        title="Per-shard availability vs flat Figure-5 analysis",
        columns=columns,
        rows=rows,
        notes=(
            f"K={shards} independent groups of M={m} managers at Pi={pi}; "
            "each shard runs the unmodified protocol, so every per-shard "
            "Wilson 95% interval "
            + ("contains the flat analytic curve."
               if all_within
               else "should contain the flat analytic value, but at least "
                    "one does NOT — investigate.")
        ),
        params={
            "M": m, "K": shards, "Pi": pi, "trials": trials, "seed": seed,
        },
    )
