"""Tests for the manager protocol (Sections 3.1, 3.3, 3.4)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.messages import AclUpdate, QueryRequest, SyncResponse, UpdateMsg
from repro.core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from repro.core.rights import AclEntry, Right, Version
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.storage import StableStore
from repro.sim.trace import TraceKind, Tracer

APP = "app"


class ManagerHarness:
    def __init__(self, policy: AccessPolicy, n_managers: int = 3, n_hosts: int = 1):
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=True)
        self.connectivity = ScriptedConnectivity()
        self.network = Network(
            self.env,
            connectivity=self.connectivity,
            latency=FixedLatency(0.05),
            tracer=self.tracer,
        )
        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        self.managers = []
        for addr in self.manager_addrs:
            manager = AccessControlManager(addr, policy)
            manager.manage(APP, self.manager_addrs)
            self.network.register(manager)
            self.managers.append(manager)
        self.hosts = []
        for i in range(n_hosts):
            host = AccessControlHost(
                f"h{i}",
                policy,
                managers={APP: self.manager_addrs},
                clock=LocalClock(self.env),
            )
            self.network.register(host)
            self.hosts.append(host)

    def grant_everywhere(self, user: str, counter: int = 1):
        entry = AclEntry(user, Right.USE, True, Version(counter, "~seed"))
        for manager in self.managers:
            manager.bootstrap(APP, [entry])

    def run(self, duration: float):
        self.env.run(until=self.env.now + duration)


def policy(**overrides) -> AccessPolicy:
    defaults = dict(
        check_quorum=2,
        expiry_bound=100.0,
        clock_bound=1.0,
        query_timeout=1.0,
        retry_backoff=0.5,
        update_retry_interval=1.0,
        revoke_retry_interval=1.0,
        cache_cleanup_interval=None,
    )
    defaults.update(overrides)
    return AccessPolicy(**defaults)


class TestConfiguration:
    def test_manage_requires_self_in_set(self, env):
        manager = AccessControlManager("m9", policy())
        with pytest.raises(ValueError):
            manager.manage(APP, ("m0", "m1"))

    def test_acl_for_unmanaged_app_raises(self):
        manager = AccessControlManager("m0", policy())
        with pytest.raises(KeyError):
            manager.acl("ghost")

    def test_issue_on_unmanaged_app_raises(self):
        harness = ManagerHarness(policy())
        with pytest.raises(KeyError):
            harness.managers[0].add("ghost", "u")

    def test_issue_while_down_raises(self):
        harness = ManagerHarness(policy())
        harness.managers[0].crash()
        with pytest.raises(RuntimeError):
            harness.managers[0].add(APP, "u")

    def test_applications_listing(self):
        harness = ManagerHarness(policy())
        assert harness.managers[0].applications() == [APP]


class TestUpdateQuorum:
    def test_add_reaches_quorum_and_full_propagation(self):
        harness = ManagerHarness(policy(check_quorum=2))  # update quorum = 2
        handle = harness.managers[0].add(APP, "u")
        harness.run(5.0)
        assert handle.quorum.triggered
        assert handle.complete.triggered
        for manager in harness.managers:
            assert manager.acl(APP).check("u", Right.USE)

    def test_quorum_blocks_until_enough_peers(self):
        """Update quorum M-C+1 = 3 with one peer unreachable: the
        quorum event waits for the partition to heal."""
        harness = ManagerHarness(policy(check_quorum=1))  # update quorum = 3
        harness.connectivity.set_down("m0", "m2")
        handle = harness.managers[0].add(APP, "u")
        harness.run(10.0)
        assert not handle.quorum.triggered  # only m0 + m1 have it
        harness.connectivity.set_up("m0", "m2")
        harness.run(10.0)
        assert handle.quorum.triggered
        assert handle.complete.triggered

    def test_quorum_of_one_is_immediate(self):
        harness = ManagerHarness(policy(check_quorum=3))  # update quorum = 1
        harness.connectivity.isolate("m0", harness.manager_addrs)
        handle = harness.managers[0].add(APP, "u")
        assert handle.quorum.triggered  # self counts

    def test_persistent_dissemination_retries_until_heal(self):
        """Paper: "a manager issuing an update uses a persistent
        strategy ... it repeatedly transmits the update to every
        manager until it succeeds"."""
        harness = ManagerHarness(policy(check_quorum=2))
        harness.connectivity.set_down("m0", "m2")
        handle = harness.managers[0].add(APP, "u")
        harness.run(20.0)
        assert handle.quorum.triggered  # m0+m1 suffice for quorum 2
        assert not handle.complete.triggered  # m2 still missing
        assert not harness.managers[2].acl(APP).check("u", Right.USE)
        harness.connectivity.set_up("m0", "m2")
        harness.run(5.0)
        assert handle.complete.triggered
        assert harness.managers[2].acl(APP).check("u", Right.USE)

    def test_duplicate_update_delivery_acked_idempotently(self):
        harness = ManagerHarness(policy(check_quorum=2, update_retry_interval=0.2))
        # Slow the ack path: drop m1 -> m0 so acks are lost while
        # m0 -> m1 deliveries keep arriving (re-deliveries).
        harness.connectivity.set_down("m0", "m1")
        handle = harness.managers[0].add(APP, "u")
        harness.run(3.0)
        harness.connectivity.set_up("m0", "m1")
        harness.run(5.0)
        assert handle.complete.triggered
        assert harness.managers[1].acl(APP).check("u", Right.USE)

    def test_concurrent_updates_converge(self):
        harness = ManagerHarness(policy(check_quorum=2))
        harness.managers[0].add(APP, "u")
        harness.managers[1].revoke(APP, "u")
        harness.run(10.0)
        verdicts = {m.acl(APP).check("u", Right.USE) for m in harness.managers}
        assert len(verdicts) == 1  # all agree, whichever version won


class TestRevocationForwarding:
    def test_granting_manager_forwards_revoke(self):
        harness = ManagerHarness(policy())
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        check = host.request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed
        assert len(host.cache_for(APP)) == 1
        harness.managers[0].revoke(APP, "alice")
        harness.run(5.0)
        assert len(host.cache_for(APP)) == 0

    def test_peer_manager_forwards_for_its_own_grants(self):
        """The revocation originates at m0, but only m1 granted to the
        host; m1 must forward when the update reaches it."""
        harness = ManagerHarness(policy(check_quorum=1))
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        # Host can only reach m1: the grant lands in m1's table.
        harness.connectivity.set_down("h0", "m0")
        harness.connectivity.set_down("h0", "m2")
        check = host.request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed
        harness.managers[0].revoke(APP, "alice")
        harness.run(5.0)
        assert len(host.cache_for(APP)) == 0

    def test_forwarding_retries_until_host_reachable(self):
        harness = ManagerHarness(policy(expiry_bound=60.0))
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        check = host.request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed
        harness.connectivity.isolate("h0", harness.manager_addrs)
        harness.managers[0].revoke(APP, "alice")
        harness.run(10.0)
        assert len(host.cache_for(APP)) == 1  # unreachable, still cached
        harness.connectivity.reconnect("h0", harness.manager_addrs)
        harness.run(5.0)
        assert len(host.cache_for(APP)) == 0  # retry got through

    def test_forwarding_stops_after_expiry_deadline(self):
        """Section 3.4: the manager "can stop resending the message
        when the access right would have expired"."""
        harness = ManagerHarness(policy(expiry_bound=5.0, revoke_retry_interval=1.0))
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        check = host.request_access(APP, "alice")
        harness.run(2.0)
        assert check.value.allowed
        harness.connectivity.isolate("h0", harness.manager_addrs)
        harness.managers[0].revoke(APP, "alice")
        harness.run(30.0)
        forwards = harness.tracer.count(TraceKind.REVOKE_FORWARDED)
        # All three managers granted to h0, so up to 3 * ceil(Te/interval)
        # sends; crucially nowhere near the 3 * 30 a non-stopping
        # retransmitter would emit over the 30 s window.
        assert 3 <= forwards <= 18

    def test_no_forwarding_without_cached_grants(self):
        harness = ManagerHarness(policy())
        harness.grant_everywhere("alice")
        harness.managers[0].revoke(APP, "alice")
        harness.run(5.0)
        assert harness.tracer.count(TraceKind.REVOKE_FORWARDED) == 0


class TestQueryAnswering:
    def test_grant_records_host_in_table(self):
        harness = ManagerHarness(policy(check_quorum=1))
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        check = host.request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed
        granted_anywhere = any(
            ("alice", Right.USE) in m._grant_table[APP] for m in harness.managers
        )
        assert granted_anywhere

    def test_expired_holders_leave_the_grant_table(self):
        """A grant table keeps only holders whose ``Te`` deadline is still
        ahead once it sweeps, so it cannot grow with every principal ever
        granted; survivors keep their first-grant order."""
        from repro.protocols.query import SWEEP_FLOOR

        te = 5.0
        harness = ManagerHarness(policy(check_quorum=1, expiry_bound=te), n_hosts=3)
        manager = harness.managers[0]
        users = [f"u{i}" for i in range(SWEEP_FLOOR + 1)]
        manager.bootstrap(
            APP, [AclEntry(user, Right.USE, True, Version(1, "~seed")) for user in users]
        )

        def grant(user, host="h0"):
            manager.answerer.answer(
                manager, host, QueryRequest(query_id=1, application=APP, user=user,
                                            right=Right.USE)
            )

        for user in users[:-2]:  # one short of the floor: no sweep yet
            grant(user)
        grant(users[0], "h1")
        harness.run(te / 2)
        grant(users[0], "h2")
        grant(users[0], "h1")  # a repeat grant keeps h1 ahead of h2
        harness.run(te / 2)  # every h0 deadline and h1's first have passed
        table = manager._grant_table[APP]
        assert len(table) == SWEEP_FLOOR - 1
        grant(users[-2])  # the table reaches the floor and sweeps
        grant(users[-1])
        now = harness.env.now
        assert len(table) == 3
        assert table.holders(users[0], Right.USE) == [
            ("h1", now - te / 2 + te), ("h2", now - te / 2 + te),
        ]
        assert table.holders(users[-2], Right.USE) == [("h0", now + te)]
        assert table.holders(users[-1], Right.USE) == [("h0", now + te)]
        assert (users[1], Right.USE) not in table

    def test_unmanaged_application_silent(self):
        harness = ManagerHarness(policy(max_attempts=1))
        host = harness.hosts[0]
        host.set_managers("other-app", harness.manager_addrs)
        process = host.request_access("other-app", "alice")
        harness.run(10.0)
        assert not process.value.allowed

    def test_stats(self):
        harness = ManagerHarness(policy(query_strategy=QueryStrategy.PARALLEL))
        harness.grant_everywhere("alice")
        host = harness.hosts[0]
        host.request_access(APP, "alice")
        harness.run(5.0)
        total_queries = sum(m.stats["queries"] for m in harness.managers)
        assert total_queries == 3  # parallel fan-out to all managers
        assert sum(m.stats["grants"] for m in harness.managers) == 3


class TestFreezeStrategy:
    def freeze_policy(self, **overrides):
        defaults = dict(
            check_quorum=1,
            expiry_bound=100.0,
            use_freeze=True,
            inaccessibility_period=10.0,
            ping_interval=2.0,
            max_attempts=1,
            exhausted_action=ExhaustedAction.DENY,
            query_timeout=1.0,
            retry_backoff=0.5,
            cache_cleanup_interval=None,
        )
        defaults.update(overrides)
        return AccessPolicy(**defaults)

    def test_managers_freeze_after_ti(self):
        harness = ManagerHarness(self.freeze_policy())
        harness.grant_everywhere("alice")
        harness.run(5.0)  # pings flowing, everyone warm
        harness.connectivity.set_down("m2", "m0")
        harness.connectivity.set_down("m2", "m1")
        harness.run(20.0)  # > Ti + ping interval
        assert harness.tracer.count(TraceKind.MANAGER_FROZEN) >= 2
        check = harness.hosts[0].request_access(APP, "alice")
        harness.run(5.0)
        assert not check.value.allowed  # frozen managers stay silent

    def test_managers_unfreeze_after_heal(self):
        harness = ManagerHarness(self.freeze_policy())
        harness.grant_everywhere("alice")
        harness.run(5.0)
        harness.connectivity.set_down("m2", "m0")
        harness.connectivity.set_down("m2", "m1")
        harness.run(20.0)
        harness.connectivity.set_up("m2", "m0")
        harness.connectivity.set_up("m2", "m1")
        harness.run(10.0)
        assert harness.tracer.count(TraceKind.MANAGER_UNFROZEN) >= 2
        check = harness.hosts[0].request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed

    def test_no_freeze_while_all_reachable(self):
        harness = ManagerHarness(self.freeze_policy())
        harness.grant_everywhere("alice")
        harness.run(30.0)
        assert harness.tracer.count(TraceKind.MANAGER_FROZEN) == 0
        check = harness.hosts[0].request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed


class TestCrashRecovery:
    def test_acl_survives_crash(self):
        harness = ManagerHarness(policy())
        harness.grant_everywhere("alice")
        harness.managers[0].crash()
        assert harness.managers[0].acl(APP).check("alice", Right.USE)

    def test_grant_table_is_volatile(self):
        harness = ManagerHarness(policy(check_quorum=1))
        harness.grant_everywhere("alice")
        check = harness.hosts[0].request_access(APP, "alice")
        harness.run(5.0)
        assert check.value.allowed
        manager = harness.managers[0]
        manager.crash()
        assert not manager._grant_table[APP]

    def test_recovery_resyncs_missed_updates(self):
        harness = ManagerHarness(policy(check_quorum=2))
        harness.managers[2].crash()
        handle = harness.managers[0].add(APP, "u")
        harness.run(5.0)
        assert handle.quorum.triggered
        harness.managers[2].recover()
        harness.run(10.0)
        assert not harness.managers[2].recovering
        assert harness.managers[2].acl(APP).check("u", Right.USE)
        assert harness.tracer.count(TraceKind.MANAGER_RESYNCED) == 1

    def test_recovering_manager_does_not_answer_queries(self):
        harness = ManagerHarness(policy(check_quorum=1, max_attempts=1))
        harness.grant_everywhere("alice")
        manager = harness.managers[0]
        manager.crash()
        manager.recover()
        # Peers are unreachable: resync cannot finish.
        harness.connectivity.isolate("m0", harness.manager_addrs)
        # Host can only reach m0.
        harness.connectivity.set_down("h0", "m1")
        harness.connectivity.set_down("h0", "m2")
        check = harness.hosts[0].request_access(APP, "alice")
        harness.run(10.0)
        assert not check.value.allowed
        assert manager.recovering

    def test_single_manager_recovery_needs_no_peers(self):
        env = Environment()
        network = Network(env, latency=FixedLatency(0.05), tracer=Tracer(env))
        manager = AccessControlManager("m0", policy(check_quorum=1))
        manager.manage(APP, ("m0",))
        network.register(manager)
        manager.crash()
        manager.recover()
        assert not manager.recovering

    def test_mutual_recovery_does_not_deadlock(self):
        """Two managers recover simultaneously; sync answers must flow
        even while recovering."""
        harness = ManagerHarness(policy())
        harness.managers[0].crash()
        harness.managers[1].crash()
        harness.run(1.0)
        harness.managers[0].recover()
        harness.managers[1].recover()
        harness.run(10.0)
        assert not harness.managers[0].recovering
        assert not harness.managers[1].recovering


_UPDATE = AclUpdate(
    update_id="x9:1", application=APP, user="mallory", right=Right.USE,
    grant=True, version=Version(5, "m1"), origin="m1",
)


def _bad(**fields):
    return dataclasses.replace(_UPDATE, **fields)


class TestIngressShapeCheck:
    """A peer's update, a resync snapshot or a stable-store record that an
    ACL cannot store is dropped and counted, and the manager carries on.
    Each shape here used to raise out of ``handle_message``."""

    CRASHING = {
        "counter-2**63": _bad(version=Version(2**63, "m1")),
        "counter-str": _bad(version=Version("x", "m1")),
        "counter-float": _bad(version=Version(1.5, "m1")),
        "counter-none": _bad(version=Version(None, "m1")),
        "application-list": _bad(application=["app"]),
        "right-str": _bad(right="use"),
        "version-none": _bad(version=None),
    }
    #: Stored without complaint before, but not an AclEntry's shape.
    MISSHAPEN = {
        "counter-negative": _bad(version=Version(-1, "m1")),
        "counter-bool": _bad(version=Version(True, "m1")),
        "grant-int": _bad(grant=1),
        "user-int": _bad(user=5),
        "origin-none": _bad(version=Version(5, None)),
        "update-id-int": _bad(update_id=7),
    }

    def assert_still_serves(self, harness, manager):
        """Local Add/Revoke and queries work after the drop."""
        handle = manager.add(APP, "carol")
        harness.run(5.0)
        assert handle.quorum.triggered
        assert manager.acl(APP).check("carol", Right.USE)
        check = harness.hosts[0].request_access(APP, "carol")
        harness.run(5.0)
        assert check.value.allowed

    @pytest.mark.parametrize("name", sorted(CRASHING) + sorted(MISSHAPEN))
    def test_malformed_update_dropped_and_counted(self, name):
        update = {**self.CRASHING, **self.MISSHAPEN}[name]
        harness = ManagerHarness(policy())
        manager = harness.managers[0]
        counter = manager._counter
        manager.handle_message("x9", UpdateMsg(update))
        assert manager.rejected_entries == 1
        assert manager._counter == counter
        assert len(manager.acl(APP)) == 0
        self.assert_still_serves(harness, manager)

    def test_well_formed_update_still_applies(self):
        harness = ManagerHarness(policy())
        manager = harness.managers[0]
        manager.handle_message("m1", UpdateMsg(_UPDATE))
        assert manager.rejected_entries == 0
        assert manager.acl(APP).check("mallory", Right.USE)
        assert manager._counter == 5

    def test_sync_response_drops_bad_entries_only(self):
        harness = ManagerHarness(policy())
        manager = harness.managers[0]
        good = AclEntry("alice", Right.USE, True, Version(3, "m1"))
        snapshot = (
            good,
            ("mallory", "use", True, 9),
            AclEntry("mallory", Right.USE, True, Version(2**63, "m1")),
            AclEntry("mallory", Right.USE, True, Version(1.5, "m1")),
        )
        manager.handle_message(
            "m1",
            SyncResponse("m1", ((APP, snapshot), (["app"], (good,)))),
        )
        assert manager.rejected_entries == 3
        assert manager.acl(APP).snapshot() == [good]
        assert manager._counter == 3
        assert "m1" in manager._synced_peers
        self.assert_still_serves(harness, manager)

    def test_store_reload_drops_bad_entries(self):
        harness = ManagerHarness(policy())
        manager = harness.managers[0]
        manager.store = StableStore("m0")
        good = AclEntry("alice", Right.USE, True, Version(3, "m1"))
        manager.store.write(f"acl:{APP}:alice:use", good)
        manager.store.write(
            f"acl:{APP}:mallory:use",
            AclEntry("mallory", Right.USE, True, Version(2**63, "m1")),
        )
        manager.on_crash()
        manager.recovery.reload_from_store(manager)
        assert manager.rejected_entries == 1
        assert manager.acl(APP).snapshot() == [good]
