"""Heap-based expiry must be observably identical to the linear sweep.

``ACLCache.purge_expired`` now pops a ``(limit, key)`` min-heap instead
of scanning every entry.  These tests drive the real cache and a
reference implementation of the old O(n) sweep through the same
store/flush/probe/expire interleavings and require identical entries,
return values, and counters at every step.
"""

from __future__ import annotations

import random

from repro.core.cache import ACLCache, CacheEntry
from repro.core.rights import Right, Version


def entry(user="u", right=Right.USE, limit=100.0, counter=1):
    return CacheEntry(
        user=user, right=right, limit=limit, version=Version(counter, "m")
    )


class ReferenceCache(ACLCache):
    """The pre-heap behaviour: purge by scanning every entry."""

    def purge_expired(self, now_local: float) -> int:
        expired = [
            key for key, e in self._entries.items() if now_local >= e.limit
        ]
        for key in expired:
            del self._entries[key]
        self.expirations += len(expired)
        return len(expired)


def assert_same_state(cache: ACLCache, reference: ReferenceCache):
    assert {(e.user, e.right, e.limit) for e in cache.entries()} == {
        (e.user, e.right, e.limit) for e in reference.entries()
    }
    assert cache.expirations == reference.expirations
    assert cache.flushes == reference.flushes
    assert cache.hits == reference.hits
    assert cache.misses == reference.misses


class TestHeapExpiryTargeted:
    def test_boundary_is_expired(self):
        # Old semantics: now >= limit expires; the heap condition
        # (limit <= now) must agree at the exact boundary.
        cache = ACLCache("app")
        cache.store(entry(limit=50.0))
        assert cache.purge_expired(50.0) == 1

    def test_refresh_with_later_limit_survives_stale_record(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        cache.store(entry(limit=99.0, counter=2))  # stale (10.0, key) remains
        assert cache.purge_expired(50.0) == 0
        assert cache.probe("u", Right.USE, 60.0) is not None
        assert cache.purge_expired(100.0) == 1

    def test_refresh_with_earlier_limit_expires_early(self):
        cache = ACLCache("app")
        cache.store(entry(limit=99.0))
        cache.store(entry(limit=10.0, counter=2))
        assert cache.purge_expired(20.0) == 1
        assert len(cache) == 0
        # The stale (99.0, key) record must not resurrect anything.
        assert cache.purge_expired(100.0) == 0

    def test_flushed_entry_leaves_harmless_record(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        cache.flush("u", Right.USE)
        assert cache.purge_expired(50.0) == 0
        assert cache.expirations == 0

    def test_lookup_expiry_then_purge_counts_once(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        assert cache.probe("u", Right.USE, 20.0) is None
        assert cache.last_probe_expired
        assert cache.purge_expired(30.0) == 0
        assert cache.expirations == 1

    def test_clear_resets_heap(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        cache.clear()
        cache.store(entry(limit=99.0, counter=2))
        assert cache.purge_expired(20.0) == 0
        assert len(cache) == 1

    def test_duplicate_same_limit_stores_expire_once(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        cache.store(entry(limit=10.0, counter=2))
        assert cache.purge_expired(10.0) == 1
        assert cache.expirations == 1

    def test_compaction_preserves_pending_expiries(self):
        cache = ACLCache("app")
        # Churn one key enough to trip the stale-record compaction
        # threshold, alongside untouched keys that must still expire.
        cache.store(entry(user="steady", limit=500.0))
        for i in range(400):
            cache.store(entry(user="churn", limit=1000.0 + i, counter=i + 1))
        # Compaction bounds stale records: the heap never exceeds the
        # 64-record floor plus a growth margin over the live entries.
        assert len(cache._expiry_heap) <= max(65, 4 * len(cache._entries) + 1)
        assert cache.purge_expired(600.0) == 1  # steady expired, churn not
        assert cache.probe("churn", Right.USE, 600.0) is not None


class TestHeapMatchesLinearSweepUnderInterleavings:
    def test_randomized_store_flush_expire_interleavings(self):
        rng = random.Random(1234)
        users = [f"u{i}" for i in range(12)]
        rights = [Right.USE, Right.MANAGE]
        cache, reference = ACLCache("app"), ReferenceCache("app")
        now = 0.0
        for step in range(3000):
            now += rng.random() * 3.0
            op = rng.random()
            if op < 0.45:
                e = entry(
                    user=rng.choice(users),
                    right=rng.choice(rights),
                    limit=now + rng.choice([-5.0, 0.0, 2.0, 10.0, 80.0]),
                    counter=step,
                )
                cache.store(e)
                reference.store(e)
            elif op < 0.6:
                user = rng.choice(users)
                right = rng.choice([None, Right.USE, Right.MANAGE])
                assert cache.flush(user, right) == reference.flush(user, right)
            elif op < 0.8:
                user, right = rng.choice(users), rng.choice(rights)
                a = cache.probe(user, right, now)
                b = reference.probe(user, right, now)
                assert (a, cache.last_probe_expired) == (b, reference.last_probe_expired)
            else:
                assert cache.purge_expired(now) == reference.purge_expired(now)
            if step % 100 == 0:
                assert_same_state(cache, reference)
        cache.purge_expired(now + 1000.0)
        reference.purge_expired(now + 1000.0)
        assert_same_state(cache, reference)
