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
(``entry``/``snapshot``).
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Tuple

from .ids import RIGHT_INDEX, RIGHTS, Interner, pack_key
from .rights import AclEntry, Right, Version, ZERO_VERSION

__all__ = ["AccessControlList"]


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
        key = pack_key(uid, RIGHT_INDEX[right])
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
        # The lookup is inlined here and in ``entry``/``apply``: they run
        # once per query or update.  ``uid * 2 + right`` is ``pack_key``.
        uid = self._ids.get(user)
        if uid is None:
            return False
        key = uid * 2 + RIGHT_INDEX[right]
        index = self._index
        slot = index[key] if key < len(index) else 0
        return slot != 0 and self._granted[slot - 1] == 1

    def entry(self, user: str, right: Right) -> Optional[AclEntry]:
        """The stored entry (grant or tombstone), or None if never set."""
        uid = self._ids.get(user)
        if uid is None:
            return None
        key = uid * 2 + RIGHT_INDEX[right]
        index = self._index
        slot = index[key] if key < len(index) else 0
        return self._slot_entry(slot - 1) if slot != 0 else None

    def version_of(self, user: str, right: Right) -> Version:
        """Version of the stored entry; ZERO_VERSION if never set."""
        slot = self._find(user, right)
        if slot < 0:
            return ZERO_VERSION
        return Version(
            self._counter[slot], self._origins.name_of(self._origin[slot])
        )

    def users_with(self, right: Right) -> List[str]:
        """All users currently holding ``right`` (sorted for determinism)."""
        index = RIGHT_INDEX[right]
        return sorted(
            self._ids.name_of(key // 2)
            for slot, key in enumerate(self._keys)
            if (key & 1) == index and self._granted[slot]
        )

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
        key = self._ids.intern(entry.user) * 2 + RIGHT_INDEX[entry.right]
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
        return sum(1 for entry in entries if self.apply(entry))

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

    def highest_version(self) -> Version:
        """The largest version present (ZERO_VERSION when empty)."""
        best_counter, best_origin = ZERO_VERSION.counter, ZERO_VERSION.origin
        for slot in range(len(self._keys)):
            counter = self._counter[slot]
            if counter < best_counter:
                continue
            origin = self._origins.name_of(self._origin[slot])
            if counter > best_counter or origin > best_origin:
                best_counter, best_origin = counter, origin
        return Version(best_counter, best_origin)

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
