"""Tests for delegated administration (the manage right, Section 2.1)
and explicit stable storage."""

from __future__ import annotations

import random

import pytest

from repro.auth.identity import Authenticator, Principal
from repro.auth.keys import generate_keypair
from repro.core.admin import AdminClient
from repro.core.manager import AccessControlManager
from repro.core.policy import AccessPolicy, QueryStrategy
from repro.core.rights import AclEntry, Right, Version
from repro.core.system import AccessControlSystem
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.storage import StableStore
from repro.sim.trace import Tracer

APP = "app"


class AdminHarness:
    def __init__(self, signed: bool = False, with_store: bool = False,
                 n_managers: int = 3):
        self.env = Environment()
        self.tracer = Tracer(self.env)
        self.connectivity = ScriptedConnectivity()
        self.network = Network(
            self.env,
            connectivity=self.connectivity,
            latency=FixedLatency(0.05),
            tracer=self.tracer,
        )
        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, query_timeout=1.0,
            update_retry_interval=1.0, cache_cleanup_interval=None,
        )
        self.authenticator = Authenticator() if signed else None
        self.stores = {}
        self.managers = []
        for addr in self.manager_addrs:
            store = StableStore(addr) if with_store else None
            self.stores[addr] = store
            manager = AccessControlManager(
                addr, policy, store=store,
                admin_authenticator=self.authenticator,
            )
            manager.manage(APP, self.manager_addrs)
            self.network.register(manager)
            self.managers.append(manager)
        # The root administrator holds the manage right everywhere.
        root_entry = AclEntry("root", Right.MANAGE, True, Version(1, ""))
        for manager in self.managers:
            manager.bootstrap(APP, [root_entry])

    def client(self, admin_id: str, principal=None) -> AdminClient:
        client = AdminClient(f"c-{admin_id}", admin_id, principal=principal,
                             request_timeout=10.0)
        self.network.register(client)
        return client

    def run(self, duration: float):
        self.env.run(until=self.env.now + duration)


class TestDelegatedAdministration:
    def test_root_can_grant_use(self):
        harness = AdminHarness()
        root = harness.client("root")
        result = root.env.process(root.add("m0", APP, "alice", Right.USE))
        harness.run(10.0)
        assert result.value.accepted
        for manager in harness.managers:
            assert manager.acl(APP).check("alice", Right.USE)

    def test_root_can_revoke(self):
        harness = AdminHarness()
        root = harness.client("root")
        root.env.process(root.add("m0", APP, "alice"))
        harness.run(5.0)
        result = root.env.process(root.revoke("m1", APP, "alice"))
        harness.run(10.0)
        assert result.value.accepted
        assert not harness.managers[0].acl(APP).check("alice", Right.USE)

    def test_plain_user_rejected(self):
        harness = AdminHarness()
        nobody = harness.client("nobody")
        result = nobody.env.process(nobody.add("m0", APP, "crony"))
        harness.run(10.0)
        assert not result.value.accepted
        assert "manage right required" in result.value.reason
        assert not harness.managers[0].acl(APP).check("crony", Right.USE)
        assert harness.managers[0].admin_requests_rejected == 1

    def test_delegation_chain(self):
        """root grants MANAGE to deputy; deputy can then administer."""
        harness = AdminHarness()
        root = harness.client("root")
        deputy = harness.client("deputy")
        grant = root.env.process(root.add("m0", APP, "deputy", Right.MANAGE))
        harness.run(10.0)
        assert grant.value.accepted
        result = deputy.env.process(deputy.add("m1", APP, "alice", Right.USE))
        harness.run(10.0)
        assert result.value.accepted

    def test_revoked_admin_loses_capability(self):
        harness = AdminHarness()
        root = harness.client("root")
        deputy = harness.client("deputy")
        root.env.process(root.add("m0", APP, "deputy", Right.MANAGE))
        harness.run(5.0)
        root.env.process(root.revoke("m0", APP, "deputy", Right.MANAGE))
        harness.run(5.0)
        result = deputy.env.process(deputy.add("m0", APP, "crony", Right.USE))
        harness.run(10.0)
        assert not result.value.accepted

    def test_unknown_application_rejected(self):
        harness = AdminHarness()
        root = harness.client("root")
        result = root.env.process(root.add("m0", "ghost-app", "alice"))
        harness.run(10.0)
        assert not result.value.accepted
        assert "unknown application" in result.value.reason

    def test_response_waits_for_update_quorum(self):
        """The accepted response is the paper's blocking-return point:
        it only comes once M - C + 1 managers applied the change."""
        harness = AdminHarness()
        # Partition m0 from both peers: quorum (2) is unreachable.
        harness.connectivity.set_down("m0", "m1")
        harness.connectivity.set_down("m0", "m2")
        root = harness.client("root")
        result = root.env.process(root.add("m0", APP, "alice"))
        harness.run(12.0)
        assert result.value.timed_out  # no quorum, no confirmation
        # The operation is still pending; healing completes it.
        harness.connectivity.set_up("m0", "m1")
        harness.run(10.0)
        assert harness.managers[1].acl(APP).check("alice", Right.USE)


class TestSignedAdministration:
    def _principal(self, name, seed):
        return Principal(name, generate_keypair(bits=128, rng=random.Random(seed)))

    def test_signed_request_accepted(self):
        harness = AdminHarness(signed=True)
        root_principal = self._principal("root", 1)
        harness.authenticator.register(root_principal)
        root = harness.client("root", principal=root_principal)
        result = root.env.process(root.add("m0", APP, "alice"))
        harness.run(10.0)
        assert result.value.accepted

    def test_unsigned_request_rejected(self):
        harness = AdminHarness(signed=True)
        root = harness.client("root")  # no principal
        result = root.env.process(root.add("m0", APP, "alice"))
        harness.run(10.0)
        assert not result.value.accepted
        assert "unsigned" in result.value.reason

    def test_forged_identity_rejected(self):
        """An attacker signs with their own key but claims 'root'."""
        harness = AdminHarness(signed=True)
        root_principal = self._principal("root", 1)
        attacker_principal = self._principal("attacker", 2)
        harness.authenticator.register(root_principal)
        harness.authenticator.register(attacker_principal)
        forger = harness.client("root", principal=attacker_principal)
        result = forger.env.process(forger.add("m0", APP, "crony"))
        harness.run(10.0)
        assert not result.value.accepted
        assert not harness.managers[0].acl(APP).check("crony", Right.USE)


class TestStableStore:
    def test_basic_semantics(self):
        store = StableStore()
        store.write("k", [1, 2])
        assert store.read("k") == [1, 2]
        assert store.read("missing", "d") == "d"
        assert "k" in store and len(store) == 1
        assert store.delete("k") and not store.delete("k")

    def test_copy_on_write_and_read(self):
        store = StableStore()
        value = {"inner": [1]}
        store.write("k", value)
        value["inner"].append(2)  # mutating after write must not leak
        first = store.read("k")
        assert first == {"inner": [1]}
        first["inner"].append(3)  # mutating the read copy must not leak
        assert store.read("k") == {"inner": [1]}

    def test_prefix_keys(self):
        store = StableStore()
        store.write("acl:a:u", 1)
        store.write("acl:b:v", 2)
        store.write("counter", 3)
        assert store.keys("acl:") == ["acl:a:u", "acl:b:v"]

    def test_manager_state_survives_crash_via_store(self):
        harness = AdminHarness(with_store=True)
        root = harness.client("root")
        result = root.env.process(root.add("m0", APP, "alice"))
        harness.run(10.0)
        assert result.value.accepted
        manager = harness.managers[0]
        manager.crash()
        # The in-memory ACL is genuinely gone...
        assert not manager.acl(APP).check("alice", Right.USE)
        assert not manager.acl(APP).check("root", Right.MANAGE)
        # ...and comes back from disk on recovery.
        manager.recover()
        harness.run(10.0)
        assert manager.acl(APP).check("alice", Right.USE)
        assert manager.acl(APP).check("root", Right.MANAGE)
        assert not manager.recovering

    def test_store_backed_recovery_merges_missed_updates(self):
        harness = AdminHarness(with_store=True)
        root = harness.client("root")
        harness.managers[2].crash()
        result = root.env.process(root.add("m0", APP, "late-news"))
        harness.run(10.0)
        assert result.value.accepted
        harness.managers[2].recover()
        harness.run(10.0)
        assert harness.managers[2].acl(APP).check("late-news", Right.USE)
        # The resynced entry was persisted too.
        store = harness.stores["m2"]
        assert any("late-news" in key for key in store.keys("acl:"))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 14")
def test_a_revoked_admin_cannot_grant_through_a_partitioned_manager():
    """A manager the ``MANAGE`` revocation has not reached still issues
    the revoked admin's grant, which then spreads and never expires.
    The paper makes ``Managers(A)`` the holders of the manage right and
    protects rights with quorum intersection; deciding the issuer's
    ``MANAGE`` at one manager breaks that (ROADMAP 14)."""
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=3, n_hosts=1,
        policy=AccessPolicy(check_quorum=2, expiry_bound=60.0, query_timeout=1.0,
                            update_retry_interval=1.0),
        connectivity=connectivity, latency=FixedLatency(0.05), seed=3,
    )
    assert system.policy.query_strategy is QueryStrategy.QUORUM
    system.seed_grants("app", ["root", "regional"], Right.MANAGE)
    root, regional = (system.network.register(AdminClient(f"c-{admin}", admin))
                      for admin in ("root", "regional"))
    m0, m1, m2 = system.manager_addrs
    connectivity.isolate(m2, [m0, m1])
    revoked = root.env.process(root.revoke(m0, "app", "regional", Right.MANAGE))
    system.run(until=10.0)
    assert revoked.value.accepted
    regional.env.process(regional.add(m2, "app", "dan"))
    system.run(until=20.0)
    connectivity.heal()
    system.run(until=280.0)

    check = system.hosts[0].request_access("app", "dan")
    system.run(until=290.0)
    assert not check.value.allowed, check.value
