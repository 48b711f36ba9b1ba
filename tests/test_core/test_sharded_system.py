"""Sharded manager groups (``shards=K``) on the system builder.

Each group runs the unmodified quorum/freeze dissemination protocol
over its own manager set; applications are consistent-hashed onto
groups and hosts resolve ``Managers(A)`` through the ring.  K=1 must
remain the classic flat deployment, byte-identical to history.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.core.system import AccessControlSystem

APPS = ("stocks", "news", "mail", "calendar", "prints")


def make_sharded(**kwargs) -> AccessControlSystem:
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("n_managers", 3)
    kwargs.setdefault("n_hosts", 3)
    kwargs.setdefault("applications", APPS)
    kwargs.setdefault("policy", AccessPolicy(check_quorum=2))
    kwargs.setdefault("seed", 7)
    return AccessControlSystem(**kwargs)


class TestFlatUnchanged:
    def test_k1_keeps_classic_addresses(self):
        system = AccessControlSystem(n_managers=3, n_hosts=1)
        assert system.manager_addrs == ("m0", "m1", "m2")
        assert system.group_addrs == (("m0", "m1", "m2"),)
        assert system.shard_router is None
        assert system.hosts[0].shard_router is None

    def test_k1_hosts_use_static_maps(self):
        system = AccessControlSystem(n_managers=3, n_hosts=1)
        assert system.hosts[0]._static_managers == {"app": ("m0", "m1", "m2")}

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            AccessControlSystem(shards=0)


class TestShardedTopology:
    def test_group_addresses_and_sizes(self):
        system = make_sharded()
        assert len(system.group_addrs) == 3
        assert system.group_addrs[1] == ("s1m0", "s1m1", "s1m2")
        assert system.n_managers == 3  # per-group M
        assert len(system.managers) == 9
        assert [len(g) for g in system.manager_groups] == [3, 3, 3]

    def test_hosts_route_through_ring_not_static_maps(self):
        system = make_sharded()
        for host in system.hosts:
            assert host.shard_router is system.shard_router
            assert host._static_managers == {}

    def test_each_application_owned_by_exactly_one_group(self):
        system = make_sharded()
        for app in APPS:
            owners = [
                g
                for g, members in enumerate(system.manager_groups)
                if all(app in m.acls for m in members)
            ]
            strangers = [
                g
                for g, members in enumerate(system.manager_groups)
                if any(app in m.acls for m in members)
            ]
            assert owners == [system.group_index_for(app)]
            assert strangers == owners

    def test_routing_helpers_agree(self):
        system = make_sharded()
        for app in APPS:
            g = system.group_index_for(app)
            assert system.manager_addrs_for(app) == system.group_addrs[g]
            assert system.managers_for(app) == system.manager_groups[g]
            assert system.n_managers_for(app) == 3

    def test_applications_spread_over_multiple_groups(self):
        # Not a ring-balance assertion (test_sharding covers that) —
        # just that this fixture genuinely exercises >1 group.
        system = make_sharded()
        assert len({system.group_index_for(app) for app in APPS}) > 1

    def test_seed_grant_touches_only_owning_group(self):
        system = make_sharded(n_hosts=0)
        system.seed_grant("stocks", "alice")
        owning = system.group_index_for("stocks")
        for g, members in enumerate(system.manager_groups):
            for manager in members:
                if g == owning:
                    assert manager.acl("stocks").check("alice", Right.USE)
                else:
                    assert "stocks" not in manager.acls


class TestShardedEndToEnd:
    def test_access_allowed_on_every_shard_with_oracles(self):
        system = make_sharded(check_invariants=True)
        for app in APPS:
            system.seed_grant(app, "alice")
        processes = [
            system.hosts[i % system.n_hosts].request_access(app, "alice")
            for i, app in enumerate(APPS)
        ]
        system.run(until=120.0)
        assert all(p.value.allowed for p in processes)
        assert not system.checker.violations
        assert system.checker.finalize() == []

    def test_unknown_user_denied_everywhere(self):
        system = make_sharded(check_invariants=True)
        for app in APPS:
            system.seed_grant(app, "alice")
        processes = [
            system.hosts[0].request_access(app, "mallory") for app in APPS
        ]
        system.run(until=120.0)
        assert not any(p.value.allowed for p in processes)
        assert system.checker.finalize() == []

    def test_revocation_disseminates_within_owning_group(self):
        system = make_sharded(check_invariants=True)
        system.seed_grant("news", "bob")
        issuer = system.managers_for("news")[0]
        issuer.revoke("news", "bob", Right.USE)
        system.run(until=120.0)
        for manager in system.managers_for("news"):
            assert not manager.acl("news").check("bob", Right.USE)
        process = system.hosts[0].request_access("news", "bob")
        system.run(until=240.0)
        assert not process.value.allowed
        assert system.checker.finalize() == []

    def test_grant_issued_through_protocol(self):
        system = make_sharded(check_invariants=True)
        issuer = system.managers_for("mail")[0]
        issuer.add("mail", "carol", Right.USE)
        system.run(until=60.0)
        process = system.hosts[1].request_access("mail", "carol")
        system.run(until=120.0)
        assert process.value.allowed
        assert system.checker.finalize() == []


class TestShardedAdministration:
    def test_repr_mentions_shards(self):
        assert "shards=3" in repr(make_sharded())
        assert "shards" not in repr(AccessControlSystem(n_hosts=0))
