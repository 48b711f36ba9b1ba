"""baselines: the paper's protocol vs the alternative designs.

Compares five systems under an identical workload on an identical
flaky WAN (pairwise epoch outages, stationary inaccessibility
``pi = 0.15``):

* **paper (cached quorum)** — this reproduction, C=2 of M=3, Te=120 s.
* **full replication** — Section 3's option 1.
* **local only** — Section 3's option 3.
* **eventual consistency** — [23]-style gossip, no time bounds.
* **temporal auth** — [4]-style fixed leases (15 min).

Reported per system: availability to authorized users, accesses
allowed for users whose rights had been revoked (split into the legal
``Te`` grace window vs *violations* past ``Te``), and control-message
overhead.  The expected shape: the paper's protocol is the only design
with both high availability and zero violations; full replication and
eventual consistency violate the bound under partitions, local-only
pays for its consistency with availability, temporal auth bounds
staleness only by its (long) lease term.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..baselines.eventual import EventualSystem
from ..baselines.full_replication import FullReplicationSystem
from ..baselines.local_only import LocalOnlySystem
from ..baselines.temporal_auth import TemporalAuthSystem
from ..core.policy import AccessPolicy
from ..core.system import AccessControlSystem
from ..metrics.streaming import (
    AvailabilityAccumulator,
    OverheadAccumulator,
    StalenessAccumulator,
)
from ..sim.partitions import PairEpochModel
from ..workloads.generators import AccessWorkload, AuthorizationOracle, UpdateWorkload
from ..workloads.population import UserPopulation
from .base import ExperimentResult, run_grid

__all__ = ["run", "run_one"]

_TE = 120.0
_LEASE = 900.0  # 15 minutes — short for [4], an eternity next to Te
_PI = 0.15
_MEAN_OUTAGE = 60.0


def _deploy(cls, seed: int, **kwargs):
    """Any of the compared systems, on the same 3-manager, 5-host WAN."""
    return cls(
        3,
        5,
        connectivity=PairEpochModel(pi=_PI, mean_outage=_MEAN_OUTAGE),
        seed=seed,
        **kwargs,
    )


SYSTEMS: Dict[str, Callable[[int], object]] = {
    "paper (cached quorum)": lambda seed: _deploy(
        AccessControlSystem, seed,
        policy=AccessPolicy(check_quorum=2, expiry_bound=_TE, max_attempts=3),
    ),
    "full replication": lambda seed: _deploy(FullReplicationSystem, seed),
    "local only": lambda seed: _deploy(LocalOnlySystem, seed),
    "eventual consistency": lambda seed: _deploy(EventualSystem, seed),
    "temporal auth": lambda seed: _deploy(
        TemporalAuthSystem, seed, lease_duration=_LEASE
    ),
}


def run_one(
    name: str,
    seed: int = 0,
    duration: float = 1500.0,
    n_users: int = 40,
    access_rate: float = 2.0,
    update_rate: float = 0.02,
) -> List:
    """Run one system under the common workload; returns its result row."""
    system = SYSTEMS[name](seed)
    population = UserPopulation(n_users, zipf_s=1.0)
    oracle = AuthorizationOracle(expiry_bound=_TE)
    authorized = population.head(int(0.8 * n_users))
    system.seed_grants("app", authorized)
    for user in authorized:
        oracle.grant("app", user)
    overhead = OverheadAccumulator(system.tracer)
    # Exact counters for PA, plus the staleness candidates that the
    # (final) oracle classifies after the run.
    availability = AvailabilityAccumulator()
    staleness = StalenessAccumulator()

    def observe(observed):
        availability.observe(observed)
        staleness.observe(observed)

    AccessWorkload(
        system, "app", population, oracle,
        rate=access_rate, rng=system.streams.stream("access-workload"),
        on_decision=observe,
    )
    UpdateWorkload(
        system, "app", population, oracle,
        rate=update_rate, rng=system.streams.stream("update-workload"),
        target_fraction=0.8,
    )
    system.run(until=duration)

    report = availability.report()
    grace, violations = staleness.finalize(oracle)
    return [
        name,
        report.availability,
        report.authorized_attempts,
        grace,
        violations,
        overhead.report(duration).control_rate,
    ]


def run(
    seed: int = 0, duration: float = 1500.0, jobs: Optional[int] = 1
) -> ExperimentResult:
    rows = run_grid(run_one, [(name, seed, duration) for name in SYSTEMS], jobs)
    return ExperimentResult(
        experiment_id="baselines",
        title="The paper's protocol vs alternative designs under partitions",
        columns=[
            "system",
            "availability",
            "auth attempts",
            "stale allows <= Te",
            "Te VIOLATIONS",
            "ctrl msg/s",
        ],
        rows=rows,
        notes=(
            f"Common workload: Pi={_PI} epoch outages, Te={_TE}s grace "
            f"reference, temporal-auth lease={_LEASE}s.  'stale allows' are "
            "accesses by revoked users inside the legal Te window; "
            "'Te VIOLATIONS' are past it — the paper's protocol must show "
            "zero, designs without expiry may not."
        ),
        params={"seed": seed, "duration": duration, "Pi": _PI, "Te": _TE},
    )
