"""caching: the value of the paper's central design choice.

Section 3 frames the design space: disseminating access information
"just among the managers" means "checking access rights at an
application host requires communicating with at least one manager" —
per access.  The paper's contribution is that option *plus caching*:
"when a host checks a user's access rights with a manager, it caches
this information to optimize subsequent accesses by the same user."

This experiment quantifies that optimisation on a flash-crowd workload
(every user new, then repeat traffic): the same protocol with caching
effectively disabled (``Te`` below the inter-access time) versus normal
``Te``.  Reported: control messages per access, mean and p99 decision
latency, and manager query load.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.system import AccessControlSystem
from ..metrics.streaming import OverheadAccumulator, StreamingSummary
from ..workloads.generators import AuthorizationOracle, FlashCrowdWorkload
from ..workloads.population import UserPopulation
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_crowd"]


def measure_crowd(te: float, label: str, seed: int = 0) -> List:
    """Serve a 40-user flash crowd (8 accesses each) under one Te."""
    system = AccessControlSystem.experiment_cell(
        cell_policy(check_quorum=2, expiry_bound=te),
        n_managers=3, n_hosts=2, seed=seed,
    )
    population = UserPopulation(40, prefix="fan")
    oracle = AuthorizationOracle(te)
    system.seed_grants("app", population)
    for user in population:
        oracle.grant("app", user)
    collector = OverheadAccumulator(system.tracer)
    # Streaming collection: the 320-access crowd fits the reservoir, so
    # the percentiles are exact; no per-decision list is kept.
    latency = StreamingSummary(seed=seed, capacity=1024)
    cache_hits = 0

    def observe(observed):
        nonlocal cache_hits
        latency.add(observed.decision.latency)
        if observed.decision.reason == "cache":
            cache_hits += 1

    crowd = FlashCrowdWorkload(
        system, "app", list(population), oracle,
        start=1.0, accesses_per_user=8, think_time=3.0,
        rng=system.streams.stream("crowd"),
        on_decision=observe,
    )
    system.run(until=120.0)
    assert crowd.done.triggered
    stats = latency.summary()
    queries = collector.by_kind.get("QueryRequest", 0)
    accesses = crowd.decisions
    return [
        label,
        accesses,
        cache_hits / accesses,
        queries / accesses,
        stats.mean * 1000.0,
        stats.p99 * 1000.0,
    ]


def run(seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    tasks = [
        (0.001, "caching off (te ~ 0)", seed),
        (300.0, "caching on (Te=300)", seed),
    ]
    rows = run_grid(measure_crowd, tasks, jobs)
    return ExperimentResult(
        experiment_id="caching",
        title="What the ACL cache buys (the paper's core design choice)",
        columns=[
            "configuration", "accesses", "cache hit rate",
            "queries / access", "mean ms", "p99 ms",
        ],
        rows=rows,
        notes=(
            "Flash crowd of 40 new users, 8 accesses each, C=2 of M=3.  "
            "Without the cache every access pays a 3-manager round "
            "(3 queries, ~100 ms); with it only each user's first access "
            "does — an ~8x query reduction and near-zero typical latency, "
            "which is why the paper caches 'to optimize subsequent "
            "accesses by the same user'."
        ),
        params={"seed": seed},
    )
