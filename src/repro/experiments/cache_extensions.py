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

from ..core.policy import AccessPolicy
from ..core.system import AccessControlSystem
from ..metrics.streaming import OverheadAccumulator, StreamingSummary
from ..sim.network import FixedLatency
from .base import ExperimentResult

__all__ = ["run", "measure_refresh_ahead", "measure_deny_cache"]


def measure_refresh_ahead(enabled: bool, seed: int = 0) -> dict:
    """Latency profile of a user accessing every 2 s for 40 te-periods."""
    te = 20.0
    policy = AccessPolicy(
        check_quorum=2,
        expiry_bound=te,
        clock_bound=1.0,
        query_timeout=1.0,
        refresh_ahead_fraction=0.3 if enabled else None,
        refresh_check_interval=2.0,
        cache_cleanup_interval=None,
    )
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        policy=policy,
        latency=FixedLatency(0.05),
        clock_drift=False,
        seed=seed,
    )
    system.seed_grant("app", "u")
    host = system.hosts[0]
    collector = OverheadAccumulator(system.tracer)
    # ~400 accesses fit the default reservoir: the percentiles are exact.
    latencies = StreamingSummary()
    duration = 40 * te

    def driver():
        while system.env.now < duration:
            decision = yield host.request_access("app", "u")
            latencies.add(decision.latency)
            yield system.env.timeout(2.0)

    system.env.process(driver(), name="driver")
    system.run(until=duration + 10.0)
    stats = latencies.summary()
    control = sum(
        count for kind, count in collector.by_kind.items()
        if kind in ("QueryRequest", "QueryResponse")
    )
    return {
        "mean_ms": stats.mean * 1000.0,
        "p99_ms": stats.p99 * 1000.0,
        "max_ms": stats.maximum * 1000.0,
        "query_msgs_per_te": control / 40.0,
    }


def measure_deny_cache(enabled: bool, seed: int = 0) -> dict:
    """Query load from a bot hammering with an unauthorized identity."""
    policy = AccessPolicy(
        check_quorum=2,
        expiry_bound=300.0,
        clock_bound=1.0,
        max_attempts=1,
        query_timeout=1.0,
        deny_cache_ttl=60.0 if enabled else None,
        cache_cleanup_interval=None,
    )
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        policy=policy,
        latency=FixedLatency(0.05),
        clock_drift=False,
        seed=seed,
    )
    host = system.hosts[0]
    collector = OverheadAccumulator(system.tracer)
    denials = 0
    duration = 600.0

    def bot():
        nonlocal denials
        while system.env.now < duration:
            decision = yield host.request_access("app", "bot")
            if not decision.allowed:
                denials += 1
            yield system.env.timeout(1.0)

    system.env.process(bot(), name="bot")
    system.run(until=duration + 10.0)
    queries = collector.by_kind.get("QueryRequest", 0)
    return {"denials": denials, "queries": queries}


def run(seed: int = 0) -> ExperimentResult:
    rows: List[List] = []
    for enabled in (False, True):
        profile = measure_refresh_ahead(enabled, seed=seed)
        rows.append(
            [
                "refresh-ahead",
                "on" if enabled else "off",
                f"mean {profile['mean_ms']:.1f} ms",
                f"p99 {profile['p99_ms']:.1f} ms",
                f"{profile['query_msgs_per_te']:.1f} query msgs / te",
            ]
        )
    for enabled in (False, True):
        load = measure_deny_cache(enabled, seed=seed)
        rows.append(
            [
                "deny-cache",
                "on" if enabled else "off",
                f"{load['denials']} denials",
                "-",
                f"{load['queries']} queries",
            ]
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
