"""Tests for the authoritative ACL."""

from __future__ import annotations

import tracemalloc
from typing import Dict

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.acl import AccessControlList, AclBatch
from repro.core.ids import Interner, NameRange, pack_key
from repro.core.manager import AccessControlManager
from repro.core.policy import AccessPolicy
from repro.core.rights import SEED_ORIGIN, AclEntry, Right, Version, ZERO_VERSION
from repro.sim.storage import StableStore


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
        assert replica.snapshot() == source.snapshot()

    def test_snapshot_merge_idempotent(self):
        source = AccessControlList("app")
        source.apply(grant("u", 1))
        replica = AccessControlList("app")
        replica.merge(source.snapshot())
        assert replica.merge(source.snapshot()) == 0


class DictIndexedAcl(AccessControlList):
    """Reference: the same columns found through a ``Dict[int, int]``
    from packed key to slot, the layout the direct-addressed index
    replaced.  Only the lookups differ; ``snapshot`` reads the shared
    columns."""

    def __init__(self, application, interner=None, origins=None):
        super().__init__(application, interner, origins)
        self._slot: Dict[int, int] = {}

    def _lookup(self, user, right) -> int:
        uid = self._ids.get(user)
        if uid is None:
            return -1
        return self._slot.get(pack_key(uid, right.index), -1)

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
        key = pack_key(self._ids.intern(entry.user), entry.right.index)
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

    def test_reference_is_not_vacuous(self):
        """The schedule above reaches ties, tombstones and index growth."""
        acl, reference = _pair("sparse")
        for entry in (grant("u7", 2, "m2"), revoke("u7", 2, "m10"), grant("bob", 1)):
            assert acl.apply(entry) == reference.apply(entry)
        assert acl.entry("u7", Right.USE) == grant("u7", 2, "m2")  # "m10" < "m2"
        assert len(acl._index) > 2 * 300 * len(_USERS)


def _manager(layout: str, store: bool) -> AccessControlManager:
    interner = None
    if layout != "private":
        interner = _sparse_interner() if layout == "sparse" else Interner("u", 50)
    manager = AccessControlManager(
        "m0", AccessPolicy(), store=StableStore() if store else None, interner=interner
    )
    manager.manage("app", ("m0",))
    return manager


def _fold_bootstrap(manager: AccessControlManager, entries) -> None:
    """The per-entry bootstrap the bulk load replaced."""
    for entry in entries:
        manager._apply_entry("app", entry)
        manager._counter = max(manager._counter, entry.version.counter)


def _state(manager: AccessControlManager):
    acl = manager.acl("app")
    versions = [acl.version_of(user, right) for user in _USERS for right in Right]
    store = manager.store
    return (
        acl.snapshot(), versions, acl.nbytes(),
        manager._ids._names, acl._origins._names, manager._counter,
        None if store is None else (store.writes, store._data),
    )


class TestBulkLoadMatchesFold:
    """``bootstrap``'s one bulk write leaves exactly what applying the
    entries one at a time left: the same entries in the same slots, the
    same index length, interner ids, counter and stable-store writes."""

    @given(
        layout=st.sampled_from(["private", "sparse", "dense-prefix"]),
        before=st.lists(_entries, max_size=8),
        batch=st.one_of(
            st.lists(_entries, max_size=40),
            st.lists(_entries, max_size=18, unique_by=lambda e: (e.user, e.right)),
        ),
        store=st.booleans(),
    )
    @example(  # a losing entry still moves the counter the store records
        layout="private", before=[grant("u0", 3)],
        batch=[grant("u0", 2), grant("u1", 0)], store=True,
    )
    def test_same_state_as_a_fold_of_apply(self, layout, before, batch, store):
        bulk, fold = _manager(layout, store), _manager(layout, store)
        for manager in (bulk, fold):
            for entry in before:  # straight in: ``_counter`` may trail the ACL
                manager.acl("app").apply(entry)
        bulk.bootstrap("app", batch)
        _fold_bootstrap(fold, batch)
        assert _state(bulk) == _state(fold)

    def test_seeds_from_a_name_range_match_named_entries(self):
        """mega's batch: dense ids straight from the range, no names."""
        bulk, fold = _manager("dense-prefix", False), _manager("dense-prefix", False)
        _fold_bootstrap(bulk, [grant("u3", 5), grant("zed", 1)])
        _fold_bootstrap(fold, [grant("u3", 5), grant("zed", 1)])
        bulk.bootstrap("app", AclBatch.seeds(NameRange("u", 40), bytes(40)))
        _fold_bootstrap(
            fold, [grant(f"u{i}", 1, SEED_ORIGIN) for i in range(40)]
        )
        assert _state(bulk) == _state(fold)
        assert bulk.acl("app").entry("u3", Right.USE) == grant("u3", 5)

    def test_apply_only_for_keys_already_set_or_repeated(self, monkeypatch):
        acl = AccessControlList("app")
        acl.apply(grant("old", 1))
        merged = []
        apply = AccessControlList.apply
        monkeypatch.setattr(
            AccessControlList, "apply",
            lambda self, entry: merged.append(entry) or apply(self, entry),
        )
        fresh = [grant("a", 1), grant("b", 1), grant("a", 1, right=Right.MANAGE)]
        assert list(acl.load(AclBatch.of(fresh))) == [0, 1, 2]
        assert merged == []
        batch = [grant("c", 1), grant("old", 2), grant("d", 1), revoke("c", 3), grant("e", 1)]
        assert acl.load(AclBatch.of(batch)) == [0, 1, 2, 3, 4]
        assert merged == [grant("old", 2), revoke("c", 3)]
        assert [e.user for e in acl.snapshot()] == ["old", "a", "b", "a", "c", "d", "e"]


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
