"""Tests for the authoritative ACL."""

from __future__ import annotations

import tracemalloc
from typing import Dict

from hypothesis import given
from hypothesis import strategies as st

from repro.core.acl import AccessControlList
from repro.core.ids import RIGHT_INDEX, Interner, pack_key
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


class DictIndexedAcl(AccessControlList):
    """Reference: the same columns found through a ``Dict[int, int]``
    from packed key to slot, the layout the direct-addressed index
    replaced.  Only the lookups differ; ``snapshot``/``highest_version``
    read the shared columns."""

    def __init__(self, application, interner=None, origins=None):
        super().__init__(application, interner, origins)
        self._slot: Dict[int, int] = {}

    def _lookup(self, user, right) -> int:
        uid = self._ids.get(user)
        if uid is None:
            return -1
        return self._slot.get(pack_key(uid, RIGHT_INDEX[right]), -1)

    def check(self, user, right):
        slot = self._lookup(user, right)
        return slot >= 0 and bool(self._granted[slot])

    def entry(self, user, right):
        slot = self._lookup(user, right)
        return self._slot_entry(slot) if slot >= 0 else None

    def version_of(self, user, right):
        slot = self._lookup(user, right)
        if slot < 0:
            return ZERO_VERSION
        return Version(self._counter[slot], self._origins.name_of(self._origin[slot]))

    def __len__(self):
        return len(self._slot)

    def __contains__(self, key):
        return self._lookup(key[0], key[1]) >= 0

    def apply(self, entry):
        key = pack_key(self._ids.intern(entry.user), RIGHT_INDEX[entry.right])
        version = entry.version
        slot = self._slot.get(key)
        if slot is None:
            self._slot[key] = len(self._keys)
            self._keys.append(key)
            self._granted.append(1 if entry.granted else 0)
            self._counter.append(version.counter)
            self._origin.append(self._origins.intern(version.origin))
            return True
        current = self._counter[slot]
        if version.counter < current or (
            version.counter == current
            and version.origin <= self._origins.name_of(self._origin[slot])
        ):
            return False
        self._granted[slot] = 1 if entry.granted else 0
        self._counter[slot] = version.counter
        self._origin[slot] = self._origins.intern(version.origin)
        return True


_USERS = ("u0", "u1", "u7", "u49", "u50", "u123", "u01", "alice", "bob")
#: "m10" < "m2" by name although it is interned later: ties go by name.
_ORIGINS = ("", "m0", "m1", "m10", "m2")

_entries = st.builds(
    AclEntry,
    user=st.sampled_from(_USERS),
    right=st.sampled_from(list(Right)),
    granted=st.booleans(),
    version=st.builds(Version, st.integers(0, 3), st.sampled_from(_ORIGINS)),
)


def _sparse_interner() -> Interner:
    """Shared interner whose users sit far apart: 300 other names
    before each, as on a system-wide interner."""
    interner = Interner()
    for i, user in enumerate(_USERS):
        for j in range(300):
            interner.intern(f"other{i}-{j}")
        interner.intern(user)
    return interner


def _pair(layout: str):
    if layout == "private":
        return AccessControlList("app"), DictIndexedAcl("app")
    interner = _sparse_interner() if layout == "sparse" else Interner("u", 50)
    return AccessControlList("app", interner), DictIndexedAcl("app", interner)


class TestDirectIndexMatchesDictReference:
    @given(
        layout=st.sampled_from(["private", "sparse", "dense-prefix"]),
        ops=st.lists(_entries, max_size=40),
    )
    def test_same_answers_on_every_read(self, layout, ops):
        acl, reference = _pair(layout)
        for entry in ops:
            assert acl.apply(entry) == reference.apply(entry)
        for user in _USERS + ("never-applied", "u3"):
            for right in Right:
                assert acl.entry(user, right) == reference.entry(user, right)
                assert acl.version_of(user, right) == reference.version_of(user, right)
                assert acl.check(user, right) == reference.check(user, right)
                assert ((user, right) in acl) == ((user, right) in reference)
        assert len(acl) == len(reference)
        assert acl.snapshot() == reference.snapshot()
        assert acl.highest_version() == reference.highest_version()

    def test_reference_is_not_vacuous(self):
        """The schedule above reaches ties, tombstones and index growth."""
        acl, reference = _pair("sparse")
        for entry in (grant("u7", 2, "m2"), revoke("u7", 2, "m10"), grant("bob", 1)):
            assert acl.apply(entry) == reference.apply(entry)
        assert acl.entry("u7", Right.USE) == grant("u7", 2, "m2")  # "m10" < "m2"
        assert len(acl._index) > 2 * 300 * len(_USERS)


class TestMemory:
    def test_bytes_per_entry_is_bounded(self):
        """25 bytes of columns plus 8 bytes of index per user; a dict
        index cost about 100 more per entry."""
        n = 50_000
        interner = Interner("u", n)  # dense names: nothing stored per user
        entries = [AclEntry(f"u{uid}", Right.USE, True, Version(1, "m0")) for uid in range(n)]
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            acl = AccessControlList("app", interner)
            acl.merge(entries)
            used = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(acl) == n
        assert used / n <= 40, f"{used / n:.1f} bytes per entry"
        assert acl.nbytes() <= used

    def test_nbytes_counts_the_index(self):
        acl = AccessControlList("app")
        acl.apply(grant("u", 1))
        assert acl.nbytes() == 8 + 1 + 8 + 8 + len(acl._index) * acl._index.itemsize
