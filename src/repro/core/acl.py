"""The authoritative access control list kept by managers.

"The access control management component maintains an access control
list for each application that includes the users allowed to access the
application, as well as the application's managers" (Section 2.2).

One :class:`AccessControlList` instance covers one application.  It is a
versioned last-writer-wins map from ``(user, right)`` to
:class:`~repro.core.rights.AclEntry`; revocations are retained as
tombstones so that merges between managers converge regardless of
message ordering (the merge is commutative, associative, and
idempotent).

Storage is columnar: parallel flat arrays (packed keys, granted flags,
version counters, origin ids) in first-apply order.  Interned ids
(:mod:`repro.core.ids`) are dense, so the index from a packed
``uid*2 + right`` key to its slot is a flat array too: ``_index[key]``
is ``slot + 1``, 0 for never set.  An entry costs 25 bytes of columns,
and the index 8 bytes per interned user whatever this ACL holds; a dict
index cost ~100 bytes per entry, so the flat one is smaller once about
a tenth of the interned users have an entry here (many small ACLs on one
huge shared interner fall below that).
``AclEntry`` objects are materialised only at the API boundary
(``entry``/``snapshot``); a query answer reads the slot (``lookup``).

A whole batch loads in one write (:meth:`AccessControlList.load`): an
:class:`AclBatch` holds entries as columns, so seeding an ACL with n
grants interns the names once and extends each column once, instead of
building and merging n ``AclEntry`` objects.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import add, mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .ids import RIGHTS, Interner, pack_key
from .rights import SEED_ORIGIN, AclEntry, Right, Version, ZERO_VERSION

__all__ = ["AccessControlList", "AclBatch"]


class AclBatch(Sequence[AclEntry]):
    """Entries as columns, the input of :meth:`AccessControlList.load`.

    Entry ``i`` is ``users[i]`` holding ``RIGHTS[rights[i]]`` (granted
    when ``granted[i]`` is 1, a tombstone when 0) at version
    ``(counters[i], origins[i])``.  Indexing materialises an
    :class:`AclEntry`.
    """

    __slots__ = ("users", "rights", "granted", "counters", "origins", "_keyed")

    def __init__(
        self,
        users: Sequence[str],
        rights: bytes,
        granted: bytes,
        counters: Sequence[int],
        origins: Sequence[str],
    ):
        self.users = users
        self.rights = rights
        self.granted = granted
        self.counters = counters
        self.origins = origins
        self._keyed: Optional[Tuple[Interner, array, bool]] = None

    @classmethod
    def of(cls, entries: Iterable[AclEntry]) -> "AclBatch":
        """The columns of ``entries``, in order."""
        entries = list(entries)
        return cls(
            [entry.user for entry in entries],
            bytes([entry.right.index for entry in entries]),
            bytes([entry.granted for entry in entries]),
            array("q", [entry.version.counter for entry in entries]),
            [entry.version.origin for entry in entries],
        )

    @classmethod
    def seeds(cls, users: Sequence[str], rights: bytes) -> "AclBatch":
        """Grants that predate time zero: ``users[i]`` holds
        ``RIGHTS[rights[i]]`` at ``Version(1, SEED_ORIGIN)``."""
        n = len(users)
        return cls(users, rights, b"\x01" * n, array("q", [1]) * n, [SEED_ORIGIN] * n)

    def keys_in(self, interner: Interner) -> Tuple[array, bool]:
        """The entries' packed keys under ``interner``, and whether they
        are distinct.

        Interns the users on first use and remembers the result for that
        interner (ids never change), so the managers of a cell, which
        share one interner, intern a batch once between them.
        """
        keyed = self._keyed
        if keyed is None or keyed[0] is not interner:
            ids = interner.intern_many(self.users)
            # pack_key over the batch, without a Python-level call per entry.
            keys = array("q", map(add, map(mul, ids, repeat(2)), self.rights))
            distinct = type(ids) is range or len(set(keys)) == len(keys)
            keyed = self._keyed = (interner, keys, distinct)
        return keyed[1], keyed[2]

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, i):
        return AclEntry(
            user=self.users[i],
            right=RIGHTS[self.rights[i]],
            granted=bool(self.granted[i]),
            version=Version(self.counters[i], self.origins[i]),
        )


class AccessControlList:
    """Versioned ACL for a single application, columnar-backed.

    ``interner`` (user names) and ``origins`` (version origins) may be
    shared across ACLs/nodes — e.g. one system-wide interner for a mega
    population; by default each ACL owns private ones.
    """

    def __init__(
        self,
        application: str,
        interner: Optional[Interner] = None,
        origins: Optional[Interner] = None,
    ):
        self.application = application
        self._ids = interner if interner is not None else Interner()
        self._origins = origins if origins is not None else Interner()
        # packed key -> slot + 1; 0 or past the end: never set.
        self._index = array("i")
        self._keys = array("q")  # packed key per slot (insertion order)
        self._granted = bytearray()  # 0/1 per slot
        self._counter = array("q")  # version counter per slot
        self._origin = array("q")  # interned version origin per slot

    # -- key helpers ---------------------------------------------------------
    def _find(self, user: str, right: Right) -> int:
        """Slot of ``(user, right)``, or -1; never grows the interner."""
        uid = self._ids.get(user)
        if uid is None:
            return -1
        key = pack_key(uid, right.index)
        index = self._index
        return index[key] - 1 if key < len(index) else -1

    def _slot_entry(self, slot: int) -> AclEntry:
        """Materialise the AclEntry stored at ``slot`` (API boundary)."""
        key = self._keys[slot]
        return AclEntry(
            user=self._ids.name_of(key // 2),
            right=RIGHTS[key & 1],
            granted=bool(self._granted[slot]),
            version=Version(
                self._counter[slot], self._origins.name_of(self._origin[slot])
            ),
        )

    # -- queries ---------------------------------------------------------------
    def check(self, user: str, right: Right) -> bool:
        """Does ``user`` currently hold ``right``?"""
        # The index read is inlined here and in ``entry``, ``lookup`` and
        # ``apply``: they run once per query or update.  ``uid * 2 +
        # right`` is ``pack_key``.
        uid = self._ids.get(user)
        if uid is None:
            return False
        key = uid * 2 + right.index
        index = self._index
        slot = index[key] if key < len(index) else 0
        return slot != 0 and self._granted[slot - 1] == 1

    def entry(self, user: str, right: Right) -> Optional[AclEntry]:
        """The stored entry (grant or tombstone), or None if never set."""
        uid = self._ids.get(user)
        if uid is None:
            return None
        key = uid * 2 + right.index
        index = self._index
        slot = index[key] if key < len(index) else 0
        return self._slot_entry(slot - 1) if slot != 0 else None

    def lookup(self, user: str, right: Right) -> Tuple[bool, Version]:
        """``(granted, version)`` of ``(user, right)``, read from its slot
        without building an :class:`AclEntry`: what a query answer
        carries.  ``(False, ZERO_VERSION)`` if never set."""
        uid = self._ids.get(user)
        if uid is not None:
            key = uid * 2 + right.index
            index = self._index
            slot = index[key] - 1 if key < len(index) else -1
            if slot >= 0:
                return self._granted[slot] == 1, Version(
                    self._counter[slot], self._origins.name_of(self._origin[slot])
                )
        return False, ZERO_VERSION

    def version_of(self, user: str, right: Right) -> Version:
        """Version of the stored entry; ZERO_VERSION if never set."""
        return self.lookup(user, right)[1]

    def __len__(self) -> int:
        """Number of stored entries, tombstones included."""
        return len(self._keys)

    def __contains__(self, key: Tuple[str, Right]) -> bool:
        return self._find(key[0], key[1]) >= 0

    # -- mutation ---------------------------------------------------------------
    def apply(self, entry: AclEntry) -> bool:
        """Merge ``entry``; higher version wins.  Returns True if stored.

        Equal versions are idempotent re-deliveries and are ignored.
        """
        key = self._ids.intern(entry.user) * 2 + entry.right.index
        version = entry.version
        index = self._index
        if key >= len(index):
            # Geometric growth (x1.125, like ``list``): amortised O(1).
            index.frombytes(bytes((key + 1 + (key >> 3) - len(index)) * index.itemsize))
        slot = index[key] - 1
        if slot < 0:
            index[key] = len(self._keys) + 1
            self._keys.append(key)
            self._granted.append(1 if entry.granted else 0)
            self._counter.append(version.counter)
            self._origin.append(self._origins.intern(version.origin))
            return True
        current = self._counter[slot]
        if version.counter < current:
            return False
        if version.counter == current:
            # Counter tie: the paper's total order falls back to the
            # origin *name* (lexicographic), not the interned id.
            if version.origin <= self._origins.name_of(self._origin[slot]):
                return False
        self._granted[slot] = 1 if entry.granted else 0
        self._counter[slot] = version.counter
        self._origin[slot] = self._origins.intern(version.origin)
        return True

    def merge(self, entries: Iterable[AclEntry]) -> int:
        """Merge many entries; returns how many were newly stored."""
        return len(self.load(AclBatch.of(entries)))

    def load(self, batch: AclBatch) -> Sequence[int]:
        """Merge ``batch`` exactly as ``apply`` over it in order would.

        The bulk path: the names are interned once, and entries whose
        key is new to this ACL are written straight into the columns and
        the index.  Only a key already set, or repeated within the
        batch, goes through :meth:`apply`, at its place in the batch.
        Returns the positions of the entries stored, ascending.
        """
        keys, fresh = batch.keys_in(self._ids)
        index = self._index
        size = len(index)
        if fresh and size:
            fresh = not [key for key in keys if key < size and index[key]]
        if fresh:
            self._append(
                keys, batch.granted, batch.counters,
                self._origins.intern_many(batch.origins),
            )
            return range(len(keys))
        stored: List[int] = []
        for at, key in enumerate(keys):
            if key < len(index) and index[key]:  # set before, or earlier in the batch
                if self.apply(batch[at]):
                    stored.append(at)
            else:
                one = slice(at, at + 1)
                self._append(
                    keys[one], batch.granted[one], batch.counters[one],
                    self._origins.intern_many(batch.origins[one]),
                )
                stored.append(at)
        return stored

    def _append(self, keys: array, granted, counters, origins) -> None:
        """Write entries with distinct new ``keys`` into fresh slots."""
        index = self._index
        size = len(index)
        for key in keys:  # the index length apply's growth would reach
            if key >= size:
                size = key + 1 + (key >> 3)
        if size > len(index):
            index.frombytes(bytes((size - len(index)) * index.itemsize))
        for slot, key in enumerate(keys, len(self._keys) + 1):
            index[key] = slot
        self._keys.extend(keys)
        self._granted.extend(granted)
        self._counter.extend(counters)
        self._origin.extend(origins)

    # -- synchronisation -----------------------------------------------------------
    def __iter__(self) -> Iterator[AclEntry]:
        """Every entry (tombstones included), materialised one at a time."""
        return map(self._slot_entry, range(len(self._keys)))

    def snapshot(self) -> List[AclEntry]:
        """All entries (tombstones included), for recovery resync.

        First-apply insertion order, matching the historical dict-backed
        behaviour (golden traces depend on resync message contents).
        """
        return list(self)

    def nbytes(self) -> int:
        """Bytes held by the columns and the index (diagnostics)."""
        return (
            len(self._keys) * self._keys.itemsize
            + len(self._granted)
            + len(self._counter) * self._counter.itemsize
            + len(self._origin) * self._origin.itemsize
            + len(self._index) * self._index.itemsize
        )

    def __repr__(self) -> str:
        grants = sum(self._granted)
        return (
            f"<ACL {self.application!r} grants={grants} "
            f"tombstones={len(self._keys) - grants}>"
        )
