"""Tests for the local-only baseline."""

from __future__ import annotations

from repro.baselines.local_only import LocalOnlySystem
from repro.core.rights import Right
from repro.sim.network import FixedLatency
from repro.sim.partitions import ScriptedConnectivity

APP = "app"


def build(seed=0):
    connectivity = ScriptedConnectivity()
    system = LocalOnlySystem(
        3, 1, applications=(APP,), connectivity=connectivity,
        latency=FixedLatency(0.05), seed=seed,
    )
    return system, connectivity


class TestChecks:
    def test_grant_at_one_manager_visible_via_version_merge(self):
        system, _ = build()
        system.managers[1].add(APP, "u", Right.USE)
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=5.0)
        assert process.value.allowed

    def test_revoke_at_any_manager_wins(self):
        system, _ = build()
        system.managers[0].add(APP, "u", Right.USE)
        system.managers[2].revoke(APP, "u", Right.USE)
        # m2's revoke has a higher per-origin counter? No — counters are
        # per manager.  The revoke must still win because the host takes
        # the max version and m2's (1, "m2") ties-break above m0's
        # (1, "m0").
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=5.0)
        assert not process.value.allowed

    def test_every_check_queries_all_managers(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        before = system.network.messages_sent
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=5.0)
        assert process.value.allowed
        # 3 queries + 3 responses.
        assert system.network.messages_sent - before == 6

    def test_no_caching_means_repeat_cost(self):
        system, _ = build()
        system.seed_grant(APP, "u")
        for _ in range(2):
            process = system.env.process(system.hosts[0].check_access(APP, "u"))
            system.run(until=system.env.now + 5.0)
            assert process.value.allowed
        assert system.network.messages_sent == 12

    def test_one_unreachable_manager_blocks_all_checks(self):
        """The design's fatal flaw under partitions."""
        system, connectivity = build()
        system.seed_grant(APP, "u")
        connectivity.set_down("h0", "m2")
        process = system.env.process(system.hosts[0].check_access(APP, "u"))
        system.run(until=30.0)
        assert not process.value.allowed
        assert process.value.reason == "exhausted"

    def test_updates_cost_nothing(self):
        system, _ = build()
        before = system.network.messages_sent
        system.managers[0].add(APP, "u", Right.USE)
        system.run(until=5.0)
        assert system.network.messages_sent == before
