"""Tests for the temporal-authorization baseline ([4]-style)."""

from __future__ import annotations

import pytest

from repro.baselines.temporal_auth import TemporalAuthSystem
from repro.core.rights import Right
from repro.sim.network import FixedLatency
from repro.sim.partitions import ScriptedConnectivity

APP = "app"


def build(lease_duration=50.0, seed=0):
    connectivity = ScriptedConnectivity()
    system = TemporalAuthSystem(
        2, 1, applications=(APP,), connectivity=connectivity,
        latency=FixedLatency(0.05), seed=seed, lease_duration=lease_duration,
    )
    return system, connectivity


class TestLeases:
    def test_lease_granted_and_cached(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        first = system.hosts[0].request_access(APP, "u")
        system.run(until=2.0)
        assert first.value.allowed
        second = system.hosts[0].request_access(APP, "u")
        system.run(until=3.0)
        assert second.value.reason == "cache"
        assert system.hosts[0].stats["lease_hits"] == 1

    def test_lease_expires_and_renews(self):
        system, _ = build(lease_duration=10.0)
        system.seed_grant(APP, "u")
        first = system.hosts[0].request_access(APP, "u")
        system.run(until=2.0)
        assert first.value.allowed
        system.run(until=15.0)  # lease expired
        probe = system.hosts[0].request_access(APP, "u")
        system.run(until=20.0)
        assert probe.value.allowed
        assert probe.value.reason == "verified"  # renewed, not cached
        assert sum(a.leases_issued for a in system.managers) == 2

    def test_revocation_effective_at_lease_boundary(self):
        """Revocation latency is bounded by the lease term — no push."""
        system, connectivity = build(lease_duration=30.0)
        system.seed_grant(APP, "u")
        first = system.hosts[0].request_access(APP, "u")
        system.run(until=2.0)
        assert first.value.allowed
        # Revoke; the lease keeps working until it runs out.
        for authority in system.managers:
            pass
        system.managers[0].revoke(APP, "u", Right.USE)
        mid = system.hosts[0].request_access(APP, "u")
        system.run(until=10.0)
        assert mid.value.allowed  # still inside the lease
        system.run(until=40.0)  # lease expired
        probe = system.hosts[0].request_access(APP, "u")
        system.run(until=45.0)
        assert not probe.value.allowed

    def test_shared_database_means_any_authority_revokes(self):
        system, _ = build(lease_duration=5.0)
        system.seed_grant(APP, "u")
        system.managers[1].revoke(APP, "u", Right.USE)
        probe = system.hosts[0].request_access(APP, "u")
        system.run(until=5.0)
        assert not probe.value.allowed  # both authorities see the revoke

    def test_denied_user_gets_no_lease(self):
        system, _ = build()
        probe = system.hosts[0].request_access(APP, "stranger")
        system.run(until=5.0)
        assert not probe.value.allowed
        assert system.hosts[0]._leases[APP] == {}

    def test_unreachable_authorities_fail_over_then_exhaust(self):
        system, connectivity = build()
        system.seed_grant(APP, "u")
        connectivity.isolate("h0", ["m0", "m1"])
        probe = system.hosts[0].request_access(APP, "u")
        system.run(until=30.0)
        assert not probe.value.allowed
        assert probe.value.attempts == 3

    def test_exhaustion_is_traced_as_unresolved(self):
        """Like every other host, a temporal host that runs out of
        attempts publishes one ACCESS_UNRESOLVED record."""
        system, connectivity = build()
        system.seed_grant(APP, "u")
        connectivity.isolate("h0", ["m0", "m1"])
        probe = system.hosts[0].request_access(APP, "u")
        system.run(until=30.0)
        assert probe.value.reason == "exhausted"
        assert system.tracer.count("access_unresolved") == 1
        assert system.tracer.count("access_denied") == 0

    def test_invalid_lease_duration(self):
        with pytest.raises(ValueError):
            build(lease_duration=0.0)
