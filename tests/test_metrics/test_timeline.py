"""Tests for the windowed availability timeline."""

from __future__ import annotations

import pytest

from repro.core.host import AccessDecision, DecisionReason
from repro.core.policy import AccessPolicy, ExhaustedAction
from repro.core.rights import Right
from repro.core.system import AccessControlSystem
from repro.metrics.timeline import availability_timeline, sparkline
from repro.sim.network import FixedLatency
from repro.sim.partitions import ScriptedConnectivity
from repro.workloads.generators import AccessWorkload, AuthorizationOracle, ObservedDecision
from repro.workloads.population import UserPopulation

APP = "app"


def observed(time, allowed, authorized=True):
    return ObservedDecision(
        time=time,
        host="h0",
        user="u",
        application=APP,
        decision=AccessDecision(
            application=APP, user="u", right=Right.USE,
            allowed=allowed,
            reason=DecisionReason.VERIFIED if allowed else DecisionReason.DENIED,
            attempts=1, responses=1, latency=0.1,
        ),
        authorized=authorized,
    )


class TestTimelineBuckets:
    def test_bucketing(self):
        points = availability_timeline(
            [observed(1.0, True), observed(2.0, False), observed(11.0, True)],
            window=10.0,
        )
        assert len(points) == 2
        assert points[0].attempts == 2 and points[0].allowed == 1
        assert points[0].availability == pytest.approx(0.5)
        assert points[1].availability == 1.0

    def test_empty_window_is_none(self):
        points = availability_timeline(
            [observed(1.0, True)], window=10.0, end_time=30.0
        )
        assert points[0].availability == 1.0
        assert points[1].availability is None
        assert points[2].availability is None

    def test_unauthorized_attempts_excluded(self):
        points = availability_timeline(
            [observed(1.0, True, authorized=False)], window=10.0, end_time=10.0
        )
        assert points[0].attempts == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            availability_timeline([], window=0.0)

    def test_empty_input(self):
        assert availability_timeline([], window=5.0) == []

    def test_sparkline_shapes(self):
        points = availability_timeline(
            [observed(1.0, True), observed(11.0, False)],
            window=10.0, end_time=30.0,
        )
        line = sparkline(points)
        assert len(line) == 3
        assert line[0] == "█" and line[1] == "_" and line[2] == "·"


class TestTimelineShowsPartitionDip:
    def test_dip_during_partition(self):
        connectivity = ScriptedConnectivity()
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=5.0, max_attempts=1,
            exhausted_action=ExhaustedAction.DENY, query_timeout=1.0,
            cache_cleanup_interval=None,
        )
        system = AccessControlSystem(
            n_managers=3, n_hosts=1, policy=policy,
            connectivity=connectivity, latency=FixedLatency(0.02),
            clock_drift=False, seed=1,
        )
        population = UserPopulation(5)
        oracle = AuthorizationOracle(5.0)
        for user in population:
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        decisions = []
        AccessWorkload(
            system, APP, population, oracle, rate=5.0,
            rng=system.streams.stream("w"), on_decision=decisions.append,
        )

        def script():
            yield system.env.timeout(100.0)
            connectivity.isolate("h0", system.manager_addrs)
            yield system.env.timeout(100.0)
            connectivity.reconnect("h0", system.manager_addrs)

        system.env.process(script(), name="script")
        system.run(until=300.0)
        points = availability_timeline(
            decisions, window=50.0, end_time=300.0
        )
        # Windows: [0,50) fine, [100,150)+[150,200) partitioned, [250,300) fine.
        assert points[0].availability > 0.95
        assert points[3].availability < 0.3  # mid-partition, cache expired
        assert points[5].availability > 0.95
