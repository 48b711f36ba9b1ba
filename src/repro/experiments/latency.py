"""latency: the paper's per-access delay claims.

Section 4.1: "The delay that the access control protocol imposes on an
individual message addressed to an application is very small if the
valid access control entry is already in the cache.  If the entry is
not in the cache, the delay is O(C) in the normal case where at least
C managers are accessible, but O(R) if the required number are not
accessible.  Reducing R will naturally reduce this worst case delay,
but at the cost of reduced security."

Five measured scenarios on a fixed-latency network (one-way 50 ms):

1. cache hit                       -> ~0
2. miss, parallel or quorum        -> ~1 RTT regardless of C
3. miss, sequential strategy       -> ~C RTTs (the literal O(C))
4. managers unreachable, finite R  -> ~R * (timeout + backoff)
5. managers unreachable, varying R -> scaling table for the O(R) claim
"""

from __future__ import annotations

from typing import List, Optional

from ..core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from ..core.system import AccessControlSystem
from ..sim.network import FixedLatency
from ..sim.partitions import ScriptedConnectivity
from .base import ExperimentResult

__all__ = ["run", "measure_decision_latency"]

_ONE_WAY = 0.05
_RTT = 2 * _ONE_WAY


def measure_decision_latency(
    c: int,
    strategy: QueryStrategy,
    partitioned: bool,
    attempts: Optional[int],
    n_managers: int = 5,
    warm_cache: bool = False,
    seed: int = 0,
) -> float:
    """Latency of a single access decision under controlled conditions."""
    policy = AccessPolicy(
        check_quorum=c,
        expiry_bound=600.0,
        clock_bound=1.0,
        max_attempts=attempts,
        exhausted_action=ExhaustedAction.DENY,
        query_timeout=1.0,
        query_strategy=strategy,
        retry_backoff=0.5,
        cache_cleanup_interval=None,
    )
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=n_managers,
        n_hosts=1,
        policy=policy,
        connectivity=connectivity,
        latency=FixedLatency(_ONE_WAY),
        clock_drift=False,
        seed=seed,
    )
    system.seed_grant("app", "alice")
    host = system.hosts[0]
    if warm_cache:
        warm = host.request_access("app", "alice")
        system.run(until=5.0)
        assert warm.value.allowed
    if partitioned:
        connectivity.isolate(host.address, system.manager_addrs)
    proc = host.request_access("app", "alice")
    system.run(until=system.env.now + 1_000.0)
    return proc.value.latency


def run(seed: int = 0) -> ExperimentResult:
    rows: List[List] = []
    # 1. cache hit
    hit = measure_decision_latency(
        3, QueryStrategy.PARALLEL, partitioned=False, attempts=None,
        warm_cache=True, seed=seed,
    )
    rows.append(["cache hit", "-", "-", 0.0, hit])
    # 2. miss, parallel — constant in C
    for c in (1, 3, 5):
        missed = measure_decision_latency(
            c, QueryStrategy.PARALLEL, partitioned=False, attempts=None, seed=seed
        )
        rows.append(["miss/parallel", c, "-", _RTT, missed])
    # 2b. miss, quorum (the default) — constant in C, 2C messages
    for c in (1, 3, 5):
        missed = measure_decision_latency(
            c, QueryStrategy.QUORUM, partitioned=False, attempts=None, seed=seed
        )
        rows.append(["miss/quorum", c, "-", _RTT, missed])
    # 3. miss, sequential — linear in C
    for c in (1, 3, 5):
        missed = measure_decision_latency(
            c, QueryStrategy.SEQUENTIAL, partitioned=False, attempts=None, seed=seed
        )
        rows.append(["miss/sequential", c, "-", c * _RTT, missed])
    # 4/5. unreachable managers — linear in R
    for r in (1, 2, 4, 8):
        blocked = measure_decision_latency(
            2, QueryStrategy.PARALLEL, partitioned=True, attempts=r, seed=seed
        )
        predicted = r * 1.0 + (r - 1) * 0.5  # R timeouts + (R-1) backoffs
        rows.append(["unreachable", 2, r, predicted, blocked])
    return ExperimentResult(
        experiment_id="latency",
        title="Access-check delay: ~0 cached, O(C) on miss, O(R) when "
        "unreachable (Section 4.1)",
        columns=["scenario", "C", "R", "predicted s", "measured s"],
        rows=rows,
        notes=(
            "Fixed 50 ms one-way latency.  Parallel fan-out and the default "
            "quorum-width round pay one round trip regardless of C (the "
            "O(C) cost moves into message count: 2M and 2C); "
            "the sequential strategy of Figure 2 shows the literal O(C) "
            "latency.  Unreachable-manager delay grows linearly in R."
        ),
        params={"seed": seed, "one_way_latency": _ONE_WAY},
    )
