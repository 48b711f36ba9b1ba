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
from ..core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from ..core.system import AccessControlSystem
from ..metrics.estimators import wilson_interval
from ..protocols.sharding import ShardRouter
from ..runtime import run_parallel
from ..sim.network import FixedLatency
from ..sim.partitions import SampledConnectivity
from .base import ExperimentResult

__all__ = ["run", "simulate_shard_pa", "app_for_shard"]

#: One trial's budget (simulated seconds); see validation.py.
_TRIAL_WINDOW = 3.0


def _policy(c: int) -> AccessPolicy:
    return AccessPolicy(
        check_quorum=c,
        expiry_bound=1_000_000.0,
        clock_bound=1.0,
        max_attempts=1,  # the analysis's R = 1 assumption
        exhausted_action=ExhaustedAction.DENY,
        query_timeout=1.0,
        query_strategy=QueryStrategy.PARALLEL,
        retry_backoff=0.0,
        update_retry_interval=0.5,
        cache_cleanup_interval=None,
    )


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
    application = app_for_shard(k, m, shard)
    connectivity = SampledConnectivity(pi)
    system = AccessControlSystem(
        n_managers=m,
        n_hosts=1,
        applications=(application,),
        policy=_policy(c),
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        clock_drift=False,
        shards=k,
        seed=seed + shard * 101 + c,
    )
    assert system.group_index_for(application) == shard
    host = system.hosts[0]
    for i in range(trials):
        system.seed_grant(application, f"u{i}")
    successes = 0
    for i in range(trials):
        connectivity.resample()
        proc = host.request_access(application, f"u{i}")
        system.run(until=system.env.now + _TRIAL_WINDOW)
        if proc.value.allowed:
            successes += 1
    return successes, trials


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
    cells = run_parallel(simulate_shard_pa, tasks, jobs)
    columns = [
        "C", "shard", "PA analytic", "PA simulated", "ci-low", "ci-high",
    ]
    rows: List[List[float]] = []
    all_within = True
    for (_m, _k, shard, c, _pi, _t, _s), (hits, n) in zip(tasks, cells):
        pa_hat = hits / n
        lo, hi = wilson_interval(hits, n)
        pa_true = availability(m, c, pi)
        eps = 1e-9
        if not (lo - eps <= pa_true <= hi + eps):
            all_within = False
        rows.append([c, shard, pa_true, pa_hat, lo, hi])
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
