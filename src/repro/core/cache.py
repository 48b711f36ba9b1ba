"""The host-side ACL cache (the paper's ``ACL_cache(A)``).

"Each host in Hosts(A) maintains a cache of the access control list for
A ... ACL_cache(A) contains the access rights that have been granted
for some subset of the users of A" (Section 3.1).  The extended
protocol (Figure 3) timestamps every cached tuple: ``lookup`` returns
``(U, limit)`` where ``limit`` is the expiration timestamp on the
*local* clock, and expired tuples are removed and re-checked with a
manager.  Here ``lookup`` is :meth:`ACLCache.probe`: the live entry or
None, with ``last_probe_expired`` telling an expiry from a cold miss.

Only grants are cached — a denial is never cached, because a stale
cached denial could not be bounded the way a stale grant is (a grant is
bounded by expiry; a denial would wrongly lock a re-authorised user out
until it was flushed).

Timestamps in this module are local-clock values; the cache never sees
real simulation time.  That is exactly the paper's point: expiry must
work from a drifting local clock alone.

Internally the cache is keyed by packed ``uid*2 + right.index`` ints
from an :class:`~repro.core.ids.Interner` (shared by a host's caches,
or by a whole cell), so a probe is one int-dict lookup and no
``Enum.__hash__`` call.  On a live node an entry's ``user`` is the
interner's own string (the wire decoder resolves names to it), so a
cached grant keeps no copy of the name.  An entry lives until it
expires or is flushed: the cache keeps nothing per grant beyond the
entry and its expiry-heap record.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from .ids import Interner, pack_key
from .rights import Right, Version

__all__ = ["CacheEntry", "ACLCache"]


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One cached grant: the paper's ``(U, limit)`` tuple plus version."""

    user: str
    right: Right
    limit: float  # expiration timestamp on the host's local clock
    version: Version


class ACLCache:
    """Per-application cache of granted rights with local-clock expiry."""

    def __init__(self, application: str, interner: Optional[Interner] = None):
        self.application = application
        self._ids = interner if interner is not None else Interner()
        self._entries: Dict[int, CacheEntry] = {}
        # Min-heap of (limit, seq, key) so ``purge_expired`` pops only
        # the entries actually past their limit instead of scanning the
        # whole cache per sweep.  Records are never removed eagerly on
        # flush/refresh; a popped record is validated against the live
        # entry and discarded if stale (lazy deletion).
        self._expiry_heap: List["tuple[float, int, int]"] = []
        self._heap_seq = itertools.count()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.flushes = 0
        #: Set by ``probe``: the last miss was an expiry, not a cold miss.
        self.last_probe_expired = False

    def __len__(self) -> int:
        return len(self._entries)

    def _probe_key(self, user: str, right: Right) -> Optional[int]:
        """Packed key if ``user`` is known; unknown users never intern."""
        uid = self._ids.get(user)
        if uid is None:
            return None
        return pack_key(uid, right.index)

    def probe(
        self, user: str, right: Right, now_local: float
    ) -> Optional[CacheEntry]:
        """Figure 3's ``lookup``: the live entry or None, allocating nothing.

        On None, ``last_probe_expired`` tells an expiry apart from a
        cold miss.  An expired entry is removed as a side effect ("the
        access control tuple is removed and the access is rechecked").
        """
        key = self._probe_key(user, right)
        entry = self._entries.get(key) if key is not None else None
        if entry is None:
            self.misses += 1
            self.last_probe_expired = False
            return None
        if now_local < entry.limit:
            self.hits += 1
            self.last_probe_expired = False
            return entry
        del self._entries[key]  # type: ignore[arg-type]
        self.expirations += 1
        self.last_probe_expired = True
        return None

    def store(self, entry: CacheEntry) -> None:
        """Insert or refresh a cached grant (``ACL_cache(A) += (U, ...)``)."""
        key = pack_key(self._ids.intern(entry.user), entry.right.index)
        self._entries[key] = entry
        heapq.heappush(self._expiry_heap, (entry.limit, next(self._heap_seq), key))
        if len(self._expiry_heap) > 64 and len(self._expiry_heap) > 4 * len(
            self._entries
        ):
            self._compact_heap()

    def flush(self, user: str, right: Optional[Right] = None) -> int:
        """Remove cached grants for ``user`` (``ACL_cache(A) -= U``).

        Removing a non-existent entry is a no-op, as the paper notes.
        Returns the number of entries removed.
        """
        uid = self._ids.get(user)
        if uid is None:
            return 0
        if right is not None:
            rights = (right.index,)
        else:
            rights = (0, 1)
        removed = 0
        for index in rights:
            if self._entries.pop(pack_key(uid, index), None) is not None:
                removed += 1
        self.flushes += removed
        return removed

    def clear(self) -> None:
        """Drop everything (host recovery: "initialized to null")."""
        self._entries.clear()
        self._expiry_heap.clear()

    def _compact_heap(self) -> None:
        """Rebuild the expiry heap from live entries, dropping stale records."""
        self._expiry_heap = [
            (entry.limit, next(self._heap_seq), key)
            for key, entry in self._entries.items()
        ]
        heapq.heapify(self._expiry_heap)

    def purge_expired(self, now_local: float) -> int:
        """Background sweep of entries past their limit.  Returns count.

        O(k log n) for k expirations via the expiry heap: pops stop at
        the first record whose limit is still in the future.  A popped
        record whose key was flushed, already expired via ``probe``,
        or refreshed with a different limit is stale and skipped — the
        refreshed entry has its own, newer record.
        """
        removed = 0
        heap = self._expiry_heap
        entries = self._entries
        while heap and heap[0][0] <= now_local:
            limit, _seq, key = heapq.heappop(heap)
            entry = entries.get(key)
            if entry is None or entry.limit != limit:
                continue  # stale heap record
            del entries[key]
            removed += 1
        self.expirations += removed
        return removed

    def entries(self) -> List[CacheEntry]:
        """All live-or-stale entries currently stored (for inspection)."""
        return list(self._entries.values())

    def __repr__(self) -> str:
        return (
            f"<ACLCache {self.application!r} size={len(self._entries)} "
            f"hits={self.hits} misses={self.misses} expired={self.expirations}>"
        )
