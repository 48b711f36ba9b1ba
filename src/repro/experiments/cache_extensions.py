"""cache_extensions: ablation of the two host-side cache extensions.

Both extensions are engineering answers to costs the paper's Section
4.1 quantifies:

* **Refresh-ahead** attacks the recurring cache-miss latency: without
  it, one access per ``te`` period pays the verification round trip;
  with it, a background sweep re-verifies entries shortly before
  expiry, so user-facing accesses stay cache hits.  The overhead rate
  is unchanged (still one verification per ``te``), it just moves off
  the user's critical path.

* **Negative caching** attacks query load from unauthorized traffic:
  without it, every denied request costs a full check quorum round;
  with it, repeat denials are served locally for a TTL.

Measured here: user-visible latency distribution (p99) with and
without refresh-ahead under a steady single-user access pattern, and
control-message counts with and without deny-caching under a
hot-unauthorized-user pattern.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.system import AccessControlSystem
from ..metrics.streaming import OverheadAccumulator, StreamingSummary
from ..workloads.generators import ObservedDecision, PeriodicWorkload
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_refresh_ahead", "measure_deny_cache"]


def measure_refresh_ahead(enabled: bool, seed: int = 0) -> List[str]:
    """Latency profile of a user accessing every 2 s for 40 te-periods:
    mean and p99 decision latency, and query traffic per te."""
    te = 20.0
    policy = cell_policy(
        check_quorum=2,
        expiry_bound=te,
        refresh_ahead_fraction=0.3 if enabled else None,
        refresh_check_interval=2.0,
    )
    system = AccessControlSystem.experiment_cell(
        policy, n_managers=3, n_hosts=1, seed=seed
    )
    system.seed_grant("app", "u")
    collector = OverheadAccumulator(system.tracer)
    # ~400 accesses fit the default reservoir: the percentiles are exact.
    latencies = StreamingSummary()
    duration = 40 * te
    PeriodicWorkload(
        system, "app", ["u"], think_time=2.0, until=duration,
        on_decision=lambda observed: latencies.add(observed.decision.latency),
    )
    system.run(until=duration + 10.0)
    stats = latencies.summary()
    control = sum(
        count for kind, count in collector.by_kind.items()
        if kind in ("QueryRequest", "QueryResponse")
    )
    return [
        f"mean {stats.mean * 1000.0:.1f} ms",
        f"p99 {stats.p99 * 1000.0:.1f} ms",
        f"{control / 40.0:.1f} query msgs / te",
    ]


def measure_deny_cache(enabled: bool, seed: int = 0) -> List[str]:
    """Query load from a bot hammering with an unauthorized identity:
    how many of its requests were denied, and the queries they cost."""
    policy = cell_policy(
        check_quorum=2,
        expiry_bound=300.0,
        max_attempts=1,
        deny_cache_ttl=60.0 if enabled else None,
    )
    system = AccessControlSystem.experiment_cell(
        policy, n_managers=3, n_hosts=1, seed=seed
    )
    collector = OverheadAccumulator(system.tracer)
    duration = 600.0
    observed: List[ObservedDecision] = []
    PeriodicWorkload(
        system, "app", ["bot"], think_time=1.0, until=duration,
        on_decision=observed.append,
    )
    system.run(until=duration + 10.0)
    denials = sum(not o.decision.allowed for o in observed)
    return [f"{denials} denials", "-", f"{collector.by_kind.get('QueryRequest', 0)} queries"]


_MEASURES = {
    "refresh-ahead": measure_refresh_ahead,
    "deny-cache": measure_deny_cache,
}


def _measure(extension: str, enabled: bool, seed: int) -> List[str]:
    return _MEASURES[extension](enabled, seed)


def run(seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    tasks = [
        (extension, enabled, seed)
        for extension in _MEASURES
        for enabled in (False, True)
    ]
    rows = run_grid(
        _measure, tasks, jobs,
        lambda extension, enabled, _seed, metrics: [
            extension, "on" if enabled else "off", *metrics
        ],
    )
    return ExperimentResult(
        experiment_id="cache_extensions",
        title="Host cache extensions: refresh-ahead and negative caching "
        "(ablation)",
        columns=["extension", "state", "metric 1", "metric 2", "traffic"],
        rows=rows,
        notes=(
            "Refresh-ahead removes the periodic verification round trip "
            "from the user path (p99 drops to ~0); refreshing at the "
            "threshold shortens the effective period, costing about "
            "fraction/(1-fraction) extra query traffic (~30% at 0.3).  "
            "The deny-cache cuts unauthorized query load by roughly its "
            "TTL / attempt-interval factor while denying the same requests."
        ),
        params={"seed": seed},
    )
