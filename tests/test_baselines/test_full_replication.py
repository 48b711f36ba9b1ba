"""Tests for the full-replication baseline."""

from __future__ import annotations

from repro.baselines.full_replication import FullReplicationSystem
from repro.core.rights import Right
from repro.sim.network import FixedLatency
from repro.sim.partitions import ScriptedConnectivity

APP = "app"


def build(seed=0):
    connectivity = ScriptedConnectivity()
    system = FullReplicationSystem(
        3, 2, applications=(APP,), connectivity=connectivity,
        latency=FixedLatency(0.05), seed=seed,
    )
    return system, connectivity


class TestLocalChecks:
    def test_seeded_grant_checked_locally(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=1.0)
        decision = process.value
        assert decision.allowed
        assert decision.latency == 0.0  # no network involved

    def test_unknown_user_denied_locally(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        process = system.env.process(system.hosts[0].check_access(APP, "other"))
        system.run(until=1.0)
        assert not process.value.allowed


class TestPropagation:
    def test_add_reaches_all_hosts(self):
        system, _ = build()
        system.managers[0].add(APP, "newbie", Right.USE)
        system.run(until=10.0)
        for host in system.hosts:
            assert host.replicas[APP].check("newbie", Right.USE)
        for manager in system.managers:
            assert manager.acls[APP].check("newbie", Right.USE)

    def test_revoke_reaches_connected_hosts(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        system.managers[0].revoke(APP, "u", Right.USE)
        system.run(until=10.0)
        for host in system.hosts:
            assert not host.replicas[APP].check("u", Right.USE)

    def test_partitioned_host_serves_stale_grant_unboundedly(self):
        """The weakness the paper's Te bound removes: a partitioned
        replica honours revoked rights for as long as the partition
        lasts."""
        system, connectivity = build()
        system.seed_grant(APP, "u")
        connectivity.isolate("h0", ["m0", "m1", "m2"])
        system.managers[0].revoke(APP, "u", Right.USE)
        system.run(until=500.0)  # far beyond any reasonable Te
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=501.0)
        assert process.value.allowed  # still serving the stale right

    def test_persistent_retransmit_heals_partition(self):
        system, connectivity = build()
        system.seed_grant(APP, "u")
        connectivity.isolate("h0", ["m0", "m1", "m2"])
        system.managers[0].revoke(APP, "u", Right.USE)
        system.run(until=20.0)
        connectivity.reconnect("h0", ["m0", "m1", "m2"])
        system.run(until=30.0)
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=31.0)
        assert not process.value.allowed

    def test_host_crash_loses_replica_then_refills(self):
        system, _ = build()
        system.managers[0].add(APP, "u", Right.USE)
        system.run(until=5.0)
        host = system.hosts[0]
        host.crash()
        assert len(host.replicas[APP]) == 0
        host.recover()
        # The manager keeps retransmitting until the host acks again.
        system.run(until=20.0)
        assert host.replicas[APP].check("u", Right.USE)
