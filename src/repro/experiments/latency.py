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

from ..core.policy import QueryStrategy
from ..core.system import AccessControlSystem
from ..sim.partitions import ScriptedConnectivity
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_decision_latency"]

_ONE_WAY = 0.05
_RTT = 2 * _ONE_WAY


def measure_decision_latency(
    c: int,
    strategy: QueryStrategy,
    partitioned: bool,
    attempts: Optional[int],
    warm_cache: bool = False,
    seed: int = 0,
    n_managers: int = 5,
) -> float:
    """Latency of a single access decision under controlled conditions."""
    policy = cell_policy(
        check_quorum=c,
        expiry_bound=600.0,
        max_attempts=attempts,
        query_strategy=strategy,
        retry_backoff=0.5,
    )
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem.experiment_cell(
        policy, one_way=_ONE_WAY, n_managers=n_managers, n_hosts=1,
        connectivity=connectivity, seed=seed,
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


def _row(c, strategy, partitioned, attempts, warm_cache, _seed, measured) -> List:
    if warm_cache:
        return ["cache hit", "-", "-", 0.0, measured]
    if partitioned:  # R timeouts + (R-1) backoffs
        return ["unreachable", c, attempts, attempts * 1.0 + (attempts - 1) * 0.5,
                measured]
    # Parallel fan-out and the quorum round cost one round trip for any
    # C; the sequential strategy one per manager asked.
    trips = c if strategy is QueryStrategy.SEQUENTIAL else 1
    return [f"miss/{strategy.value}", c, "-", trips * _RTT, measured]


def run(seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    # 1. a cache hit; 2. misses, parallel and quorum, constant in C;
    # 3. misses, sequential, linear in C; 4. unreachable, linear in R.
    tasks = [(3, QueryStrategy.PARALLEL, False, None, True, seed)]
    tasks += [
        (c, strategy, False, None, False, seed)
        for strategy in (
            QueryStrategy.PARALLEL, QueryStrategy.QUORUM, QueryStrategy.SEQUENTIAL
        )
        for c in (1, 3, 5)
    ]
    tasks += [(2, QueryStrategy.PARALLEL, True, r, False, seed) for r in (1, 2, 4, 8)]
    rows = run_grid(measure_decision_latency, tasks, jobs, _row)
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
