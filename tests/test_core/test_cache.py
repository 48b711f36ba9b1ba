"""Tests for ACL_cache(A) — the Figure 3 data structure."""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.cache import ACLCache, CacheEntry
from repro.core.ids import Interner
from repro.core.rights import Right, Version

#: Bytes a stored grant keeps in the cache, at 20 000 grants: its index
#: slot and packed key, and its expiry-heap record, read 162 B on CPython
#: 3.11; a per-grant last-access table (a dict slot and a float) made it
#: 215 B.
BOUND_PER_GRANT = 184


def entry(user="u", right=Right.USE, limit=100.0, counter=1):
    return CacheEntry(user=user, right=right, limit=limit, version=Version(counter, "m"))


class TestLookup:
    def test_miss_on_empty(self):
        cache = ACLCache("app")
        assert cache.probe("u", Right.USE, now_local=0.0) is None
        assert not cache.last_probe_expired
        assert cache.misses == 1

    def test_hit_before_limit(self):
        cache = ACLCache("app")
        cache.store(entry(limit=50.0))
        hit = cache.probe("u", Right.USE, now_local=49.9)
        assert hit is not None
        assert hit.limit == 50.0
        assert cache.hits == 1

    def test_expired_at_limit(self):
        """Figure 3 allows only while Time() < limit — the boundary
        instant itself is expired."""
        cache = ACLCache("app")
        cache.store(entry(limit=50.0))
        assert cache.probe("u", Right.USE, now_local=50.0) is None
        assert cache.last_probe_expired

    def test_expired_entry_removed(self):
        cache = ACLCache("app")
        cache.store(entry(limit=50.0))
        cache.probe("u", Right.USE, now_local=60.0)
        assert len(cache) == 0
        # The followup probe is a plain miss, not another expiry.
        assert cache.probe("u", Right.USE, now_local=61.0) is None
        assert not cache.last_probe_expired
        assert cache.expirations == 1

    def test_rights_cached_separately(self):
        cache = ACLCache("app")
        cache.store(entry(right=Right.USE))
        assert cache.probe("u", Right.MANAGE, 0.0) is None


class TestStoreAndFlush:
    def test_store_refreshes_limit(self):
        cache = ACLCache("app")
        cache.store(entry(limit=10.0))
        cache.store(entry(limit=99.0, counter=2))
        assert cache.probe("u", Right.USE, 50.0) is not None

    def test_flush_specific_right(self):
        cache = ACLCache("app")
        cache.store(entry(right=Right.USE))
        cache.store(entry(right=Right.MANAGE))
        assert cache.flush("u", Right.USE) == 1
        assert len(cache) == 1

    def test_flush_all_rights_of_user(self):
        cache = ACLCache("app")
        cache.store(entry(right=Right.USE))
        cache.store(entry(right=Right.MANAGE))
        cache.store(entry(user="other"))
        assert cache.flush("u") == 2
        assert len(cache) == 1

    def test_flush_missing_is_noop(self):
        """Figure 2's note: removing a non-existent right is a no-op."""
        cache = ACLCache("app")
        assert cache.flush("ghost") == 0
        assert cache.flush("ghost", Right.USE) == 0

    def test_clear(self):
        cache = ACLCache("app")
        cache.store(entry())
        cache.clear()
        assert len(cache) == 0


class TestPurge:
    def test_purge_removes_only_expired(self):
        cache = ACLCache("app")
        cache.store(entry(user="old", limit=10.0))
        cache.store(entry(user="fresh", limit=100.0))
        removed = cache.purge_expired(now_local=50.0)
        assert removed == 1
        assert cache.probe("fresh", Right.USE, 50.0) is not None

    def test_purge_empty(self):
        assert ACLCache("app").purge_expired(0.0) == 0

    def test_entries_listing(self):
        cache = ACLCache("app")
        cache.store(entry(user="a"))
        cache.store(entry(user="b"))
        assert {e.user for e in cache.entries()} == {"a", "b"}


def test_warm_probe_never_calls_into_enum():
    """``Right`` is a plain attribute on the hot path: a dict keyed by the
    member would call ``Enum.__hash__``, a Python function in ``enum.py``,
    on every probe (and on every ACL check and every encoded right)."""
    import sys

    cache = ACLCache("app")
    cache.store(entry(user="alice", limit=50.0))
    cache.store(entry(user="alice", right=Right.MANAGE, limit=50.0))
    assert cache.probe("alice", Right.USE, 1.0) is not None  # warm
    entered = []

    def watch(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_filename)

    sys.setprofile(watch)
    try:
        hits = [cache.probe("alice", right, 2.0) for right in (Right.USE, Right.MANAGE)]
    finally:
        sys.setprofile(None)
    assert all(hits)
    assert not [path for path in entered if path.endswith("enum.py")], entered


def test_cache_bytes_per_stored_grant_are_bounded():
    grants = 20_000
    interner = Interner()
    users = [f"p{index}@d{index % 251}.example.org" for index in range(grants)]
    interner.intern_many(users)
    version = Version(1, "m0")
    entries = [CacheEntry(user=user, right=Right.USE, limit=1_000.0 + index, version=version)
               for index, user in enumerate(users)]
    cache = ACLCache("app", interner)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for stored in entries:
            cache.store(stored)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Unfiltered: whatever the store allocates counts, wherever it is filed.
    per_grant = sum(stat.size_diff for stat in after.compare_to(before, "filename")) / grants
    assert len(cache) == grants
    assert per_grant < BOUND_PER_GRANT, f"{per_grant:.0f} bytes per cached grant"
