"""revocation: the time-bounded revocation guarantee of Section 3.2.

"If a revocation associated with user U is initiated at time t and the
time bound on revocation is Te, then the protocol guarantees that U
cannot access the application after t + Te.  Moreover, this holds even
if the managers are unable to reach all hosts that are caching this
information at time t."

Adversarial setup: a host verifies and caches a grant, is immediately
partitioned from every manager (so the ``Revoke`` notification can
never arrive), and the revocation is issued.  The host keeps polling
access against its cache.  The experiment sweeps:

* host clock rate — from the slowest admissible (``1/b``) to nominal,
* delta accounting mode (full vs half round trip),
* the connected fast path (no partition) for contrast.

For every configuration the *last* time an access is allowed, measured
from the revocation, must be below ``Te``.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.policy import DeltaMode
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..sim.clock import LocalClock
from ..sim.partitions import ScriptedConnectivity
from ..workloads.generators import ObservedDecision, PeriodicWorkload
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "last_allowed_offset"]


def last_allowed_offset(
    clock_rate: float,
    delta_mode: DeltaMode,
    partitioned: bool,
    te_bound: float = 60.0,
    clock_bound: float = 1.1,
    seed: int = 0,
    n_managers: int = 3,
    poll_interval: float = 0.5,
) -> float:
    """Seconds after the revocation at which the last access succeeded.

    Returns a negative-ish small number if no access was ever allowed
    after the revocation instant.
    """
    policy = cell_policy(
        check_quorum=2,
        expiry_bound=te_bound,
        clock_bound=clock_bound,
        max_attempts=1,
        delta_mode=delta_mode,
    )
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem.experiment_cell(
        policy, n_managers=n_managers, n_hosts=1,
        connectivity=connectivity, seed=seed,
    )
    host = system.hosts[0]
    # The host's clock runs at ``clock_rate`` -- down to 1/b, the
    # slowest the policy admits -- from an arbitrary offset.
    host.clock = LocalClock(system.env, rate=clock_rate, offset=500.0)
    system.seed_grant("app", "alice")

    # 1. Warm the cache with a verified grant.
    warm = host.request_access("app", "alice")
    system.run(until=2.0)
    assert warm.value.allowed and warm.value.reason == "verified"

    # 2. Partition the host from every manager (worst case).
    if partitioned:
        connectivity.isolate(host.address, system.manager_addrs)

    # 3. Revoke.
    revoke_at = system.env.now
    system.managers[0].revoke("app", "alice", Right.USE)

    # 4. Poll until well past the bound and record the last allow.
    observed: List[ObservedDecision] = []
    PeriodicWorkload(
        system, "app", ["alice"], think_time=poll_interval,
        until=revoke_at + 2.0 * te_bound, on_decision=observed.append,
    )
    system.run(until=revoke_at + 2.0 * te_bound + 5.0)
    last_allowed = max(
        (o.time for o in observed if o.decision.allowed),
        default=revoke_at - poll_interval,
    )
    return last_allowed - revoke_at


def _row(rate, mode, partitioned, te_bound, _b, _seed, offset) -> List:
    return [
        "partitioned" if partitioned else "connected",
        round(rate, 4),
        mode.value,
        te_bound,
        offset,
        "OK" if offset < te_bound else "VIOLATION",
    ]


def run(
    te_bound: float = 60.0,
    clock_bound: float = 1.1,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    slowest = 1.0 / clock_bound
    # One fully deterministic (clock-rate, delta-mode, partition) cell
    # per task, in last_allowed_offset's positional order.
    tasks = [
        (rate, mode, partitioned, te_bound, clock_bound, seed)
        for partitioned in (True, False)
        for rate in (slowest, 0.95, 1.0)
        for mode in (DeltaMode.FULL_ROUND_TRIP, DeltaMode.HALF_ROUND_TRIP)
    ]
    rows = run_grid(last_allowed_offset, tasks, jobs, _row)
    return ExperimentResult(
        experiment_id="revocation",
        title="Time-bounded revocation holds under partitions and clock "
        "drift (Section 3.2)",
        columns=["network", "clock rate", "delta mode", "Te", "last allow after revoke (s)", "bound"],
        rows=rows,
        notes=(
            "Partitioned hosts ride their cache until local expiry — always "
            "inside Te even at the slowest admissible clock (rate 1/b).  "
            "Connected hosts are flushed by the forwarded Revoke within a "
            "round trip."
        ),
        params={"Te": te_bound, "b": clock_bound},
    )
