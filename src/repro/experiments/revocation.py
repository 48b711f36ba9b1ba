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

from ..core.host import AccessControlHost
from ..core.manager import AccessControlManager
from ..core.policy import AccessPolicy, DeltaMode, ExhaustedAction
from ..core.rights import Right
from ..runtime import run_parallel
from ..sim.clock import LocalClock
from ..sim.engine import Environment
from ..sim.network import FixedLatency, Network
from ..sim.partitions import ScriptedConnectivity
from ..sim.trace import Tracer
from .base import ExperimentResult

__all__ = ["run", "last_allowed_offset"]


def last_allowed_offset(
    clock_rate: float,
    delta_mode: DeltaMode,
    partitioned: bool,
    te_bound: float = 60.0,
    clock_bound: float = 1.1,
    n_managers: int = 3,
    poll_interval: float = 0.5,
) -> float:
    """Seconds after the revocation at which the last access succeeded.

    Returns a negative-ish small number if no access was ever allowed
    after the revocation instant.
    """
    env = Environment()
    tracer = Tracer(env)
    connectivity = ScriptedConnectivity()
    network = Network(
        env, connectivity=connectivity, latency=FixedLatency(0.05), tracer=tracer
    )
    policy = AccessPolicy(
        check_quorum=2,
        expiry_bound=te_bound,
        clock_bound=clock_bound,
        max_attempts=1,
        exhausted_action=ExhaustedAction.DENY,
        query_timeout=1.0,
        delta_mode=delta_mode,
        cache_cleanup_interval=None,
    )
    manager_addrs = tuple(f"m{i}" for i in range(n_managers))
    managers = []
    for addr in manager_addrs:
        manager = AccessControlManager(addr, policy)
        manager.manage("app", manager_addrs)
        network.register(manager)
        managers.append(manager)
    host = AccessControlHost(
        "h0",
        policy,
        managers={"app": manager_addrs},
        clock=LocalClock(env, rate=clock_rate, offset=500.0),
    )
    network.register(host)
    for manager in managers:
        from ..core.rights import AclEntry, Version

        manager.bootstrap(
            "app",
            [AclEntry(user="alice", right=Right.USE, granted=True,
                      version=Version(1, "~seed"))],
        )

    # 1. Warm the cache with a verified grant.
    warm = host.request_access("app", "alice")
    env.run(until=2.0)
    assert warm.value.allowed and warm.value.reason == "verified"

    # 2. Partition the host from every manager (worst case).
    if partitioned:
        connectivity.isolate(host.address, manager_addrs)

    # 3. Revoke.
    revoke_at = env.now
    managers[0].revoke("app", "alice", Right.USE)

    # 4. Poll until well past the bound and record the last allow.
    last_allowed = revoke_at - poll_interval
    results = []

    def poller():
        nonlocal last_allowed
        while env.now < revoke_at + 2.0 * te_bound:
            decision = yield host.request_access("app", "alice")
            if decision.allowed:
                last_allowed = env.now
            yield env.timeout(poll_interval)

    env.process(poller(), name="poller")
    env.run(until=revoke_at + 2.0 * te_bound + 5.0)
    return last_allowed - revoke_at


def run(
    te_bound: float = 60.0,
    clock_bound: float = 1.1,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    slowest = 1.0 / clock_bound
    # One fully deterministic (clock-rate, delta-mode, partition) cell
    # per task, in last_allowed_offset's positional order.
    tasks = [
        (rate, mode, partitioned, te_bound, clock_bound)
        for partitioned in (True, False)
        for rate in (slowest, 0.95, 1.0)
        for mode in (DeltaMode.FULL_ROUND_TRIP, DeltaMode.HALF_ROUND_TRIP)
    ]
    offsets = run_parallel(last_allowed_offset, tasks, jobs)
    rows: List[List] = [
        [
            "partitioned" if partitioned else "connected",
            round(rate, 4),
            mode.value,
            te_bound,
            offset,
            "OK" if offset < te_bound else "VIOLATION",
        ]
        for (rate, mode, partitioned, _te, _b), offset in zip(tasks, offsets)
    ]
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
