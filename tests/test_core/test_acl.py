"""Tests for the authoritative ACL."""

from __future__ import annotations

from repro.core.acl import AccessControlList
from repro.core.rights import AclEntry, Right, Version, ZERO_VERSION


def grant(user, counter, origin="m0", right=Right.USE):
    return AclEntry(user, right, True, Version(counter, origin))


def revoke(user, counter, origin="m0", right=Right.USE):
    return AclEntry(user, right, False, Version(counter, origin))


class TestBasics:
    def test_empty_denies(self):
        acl = AccessControlList("app")
        assert not acl.check("u", Right.USE)
        assert acl.entry("u", Right.USE) is None
        assert acl.version_of("u", Right.USE) == ZERO_VERSION

    def test_grant_then_check(self):
        acl = AccessControlList("app")
        assert acl.apply(grant("u", 1))
        assert acl.check("u", Right.USE)
        assert not acl.check("u", Right.MANAGE)

    def test_rights_independent(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1, right=Right.MANAGE))
        assert acl.check("u", Right.MANAGE)
        assert not acl.check("u", Right.USE)

    def test_revocation_is_tombstone(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1))
        acl.apply(revoke("u", 2))
        assert not acl.check("u", Right.USE)
        assert acl.entry("u", Right.USE) is not None  # tombstone kept
        assert len(acl) == 1

    def test_users_with(self):
        acl = AccessControlList("app")
        acl.apply(grant("b", 1))
        acl.apply(grant("a", 2))
        acl.apply(revoke("c", 3))
        assert acl.users_with(Right.USE) == ["a", "b"]

    def test_contains(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1))
        assert ("u", Right.USE) in acl
        assert ("u", Right.MANAGE) not in acl


class TestMergeSemantics:
    def test_higher_version_wins(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1))
        assert acl.apply(revoke("u", 2))
        assert not acl.check("u", Right.USE)

    def test_lower_version_ignored(self):
        acl = AccessControlList("app")
        acl.apply(revoke("u", 5))
        assert not acl.apply(grant("u", 3))
        assert not acl.check("u", Right.USE)

    def test_equal_version_idempotent(self):
        acl = AccessControlList("app")
        entry = grant("u", 1)
        assert acl.apply(entry)
        assert not acl.apply(entry)

    def test_concurrent_updates_deterministic_tiebreak(self):
        """Same counter from two origins: higher origin id wins, on
        both merge orders (convergence)."""
        a = AccessControlList("app")
        b = AccessControlList("app")
        grant_m1 = AclEntry("u", Right.USE, True, Version(4, "m1"))
        revoke_m2 = AclEntry("u", Right.USE, False, Version(4, "m2"))
        a.apply(grant_m1)
        a.apply(revoke_m2)
        b.apply(revoke_m2)
        b.apply(grant_m1)
        assert a.check("u", Right.USE) == b.check("u", Right.USE) is False

    def test_merge_returns_number_applied(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1))
        applied = acl.merge([grant("u", 1), grant("v", 2), revoke("u", 3)])
        assert applied == 2

    def test_merge_is_commutative(self):
        entries = [grant("u", 1), revoke("u", 3), grant("u", 2), grant("v", 1, "m9")]
        forward = AccessControlList("app")
        backward = AccessControlList("app")
        forward.merge(entries)
        backward.merge(reversed(entries))
        key = lambda e: (e.user, e.right.value)
        assert sorted(forward.snapshot(), key=key) == sorted(
            backward.snapshot(), key=key
        )


class TestSnapshot:
    def test_snapshot_roundtrip(self):
        source = AccessControlList("app")
        source.apply(grant("u", 1))
        source.apply(revoke("v", 2))
        replica = AccessControlList("app")
        replica.merge(source.snapshot())
        assert replica.check("u", Right.USE)
        assert not replica.check("v", Right.USE)
        assert replica.highest_version() == source.highest_version()

    def test_highest_version_empty(self):
        assert AccessControlList("app").highest_version() == ZERO_VERSION

    def test_snapshot_merge_idempotent(self):
        source = AccessControlList("app")
        source.apply(grant("u", 1))
        replica = AccessControlList("app")
        replica.merge(source.snapshot())
        assert replica.merge(source.snapshot()) == 0
