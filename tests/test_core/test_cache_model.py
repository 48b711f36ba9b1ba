"""Model-based stateful test for :class:`repro.core.cache.ACLCache`.

The production cache keeps a lazy-deletion min-heap so expiry sweeps
are O(k log n); the reference model below is the obviously-correct
version — a plain dict plus linear scans.  Hypothesis drives random
interleavings of insert / probe / revoke / expire / compact and checks the two stay in lockstep, contents and counters
alike.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.cache import ACLCache, CacheEntry
from repro.core.rights import Right, Version

USERS = ("ann", "bob", "cyd")
RIGHTS = (Right.USE, Right.MANAGE)

users = st.sampled_from(USERS)
rights = st.sampled_from(RIGHTS)
clocks = st.integers(0, 60).map(float)
limits = st.integers(0, 80).map(float)


class CacheAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = ACLCache("app")
        self.entries = {}  # key -> CacheEntry (the model)
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.flushes = 0

    # -- operations ---------------------------------------------------------
    @rule(
        user=users,
        right=rights,
        limit=limits,
        counter=st.integers(1, 9),
    )
    def insert(self, user, right, limit, counter):
        entry = CacheEntry(
            user=user, right=right, limit=limit, version=Version(counter, "m0")
        )
        self.cache.store(entry)
        self.entries[(user, right)] = entry

    @rule(user=users, right=rights, now=clocks)
    def probe(self, user, right, now):
        found = self.cache.probe(user, right, now)
        expired = self.cache.last_probe_expired
        key = (user, right)
        expected = self.entries.get(key)
        if expected is None:
            assert found is None and not expired
            self.misses += 1
        elif now < expected.limit:
            assert found == expected and not expired
            self.hits += 1
        else:
            # Figure 3: "the access control tuple is removed and the
            # access is rechecked".
            assert found is None and expired
            del self.entries[key]
            self.expirations += 1

    @rule(user=users, right=st.one_of(st.none(), rights))
    def revoke(self, user, right):
        removed = self.cache.flush(user, right)
        if right is not None:
            keys = [(user, right)] if (user, right) in self.entries else []
        else:
            keys = [key for key in self.entries if key[0] == user]
        for key in keys:
            del self.entries[key]
        assert removed == len(keys)
        self.flushes += len(keys)

    @rule(now=clocks)
    def expire(self, now):
        removed = self.cache.purge_expired(now)
        keys = [
            key for key, entry in self.entries.items() if entry.limit <= now
        ]
        for key in keys:
            del self.entries[key]
        assert removed == len(keys)
        self.expirations += len(keys)

    @rule()
    def compact(self):
        # Heap compaction is an internal optimisation; behaviour must be
        # untouched wherever it lands in the interleaving.
        self.cache._compact_heap()

    @rule()
    def clear(self):
        self.cache.clear()
        self.entries.clear()

    # -- lockstep invariants ------------------------------------------------
    @invariant()
    def contents_agree(self):
        actual = {(e.user, e.right): e for e in self.cache.entries()}
        assert actual == self.entries
        assert len(self.cache) == len(self.entries)

    @invariant()
    def counters_agree(self):
        assert self.cache.hits == self.hits
        assert self.cache.misses == self.misses
        assert self.cache.expirations == self.expirations
        assert self.cache.flushes == self.flushes


TestCacheAgainstModel = CacheAgainstModel.TestCase
TestCacheAgainstModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
