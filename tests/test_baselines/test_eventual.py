"""Tests for the eventual-consistency baseline ([23]-style)."""

from __future__ import annotations

from repro.baselines.eventual import EventualSystem
from repro.core.rights import Right
from repro.sim.network import FixedLatency
from repro.sim.partitions import ScriptedConnectivity

APP = "app"


def build(gossip_interval=5.0, seed=0):
    connectivity = ScriptedConnectivity()
    system = EventualSystem(
        3, 1, applications=(APP,), connectivity=connectivity,
        latency=FixedLatency(0.05), seed=seed, gossip_interval=gossip_interval,
    )
    return system, connectivity


class TestGossipConvergence:
    def test_update_spreads_via_gossip(self):
        system, _ = build(gossip_interval=2.0)
        system.managers[0].add(APP, "u", Right.USE)
        system.run(until=60.0)
        for manager in system.managers:
            assert manager.acls[APP].check("u", Right.USE)

    def test_convergence_after_partition_heals(self):
        system, connectivity = build(gossip_interval=2.0)
        connectivity.isolate("m0", ["m1", "m2"])
        system.managers[0].revoke(APP, "ghost", Right.USE)
        system.managers[0].add(APP, "u", Right.USE)
        system.run(until=30.0)
        assert not system.managers[1].acls[APP].check("u", Right.USE)
        connectivity.reconnect("m0", ["m1", "m2"])
        system.run(until=90.0)
        for manager in system.managers:
            assert manager.acls[APP].check("u", Right.USE)

    def test_concurrent_updates_converge_deterministically(self):
        system, _ = build(gossip_interval=1.0)
        system.managers[0].add(APP, "u", Right.USE)
        system.managers[1].revoke(APP, "u", Right.USE)
        system.run(until=60.0)
        verdicts = {m.acls[APP].check("u", Right.USE) for m in system.managers}
        assert len(verdicts) == 1


class TestHostBehaviour:
    def test_grant_cached_forever(self):
        system, connectivity = build()
        system.seed_grant(APP, "u")
        first = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=2.0)
        assert first.value.allowed
        # Partition the host: the cache has no expiry, so access continues.
        connectivity.isolate("h0", ["m0", "m1", "m2"])
        system.run(until=1_000.0)
        second = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=1_001.0)
        assert second.value.allowed
        assert second.value.reason == "cache"

    def test_revoke_notification_flushes_connected_host(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        first = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=2.0)
        assert first.value.allowed
        # Revoke at a manager the host queried (h0 queried m0 first).
        system.managers[0].revoke(APP, "u", Right.USE)
        system.run(until=30.0)
        probe = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=35.0)
        assert not probe.value.allowed

    def test_gossiped_revoke_triggers_forwarding_from_granting_manager(self):
        """The granting manager learns of the revoke via gossip and
        must flush its own hosts."""
        system, _ = build(gossip_interval=2.0)
        system.seed_grant(APP, "u")
        first = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=2.0)
        assert first.value.allowed
        # Revoke at a *different* manager than the one that granted.
        system.managers[2].revoke(APP, "u", Right.USE)
        system.run(until=60.0)  # gossip + forward
        assert not system.hosts[0]._cache[APP]

    def test_unbounded_staleness_under_partition(self):
        """No time bound: a partitioned host honours revoked rights
        arbitrarily long — the paper's criticism of [23]."""
        system, connectivity = build()
        system.seed_grant(APP, "u")
        first = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=2.0)
        assert first.value.allowed
        connectivity.isolate("h0", ["m0", "m1", "m2"])
        system.managers[0].revoke(APP, "u", Right.USE)
        system.run(until=2_000.0)
        probe = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=2_001.0)
        assert probe.value.allowed  # stale for 2000 s and counting


class TestCrash:
    def test_host_crash_forgets_its_cache(self):
        system, _ = build()
        system.managers[0].add(APP, "u", Right.USE)
        system.run(until=30.0)
        probe = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=35.0)
        assert probe.value.allowed and system.hosts[0]._cache[APP]
        system.hosts[0].crash()
        assert system.hosts[0]._cache == {}
