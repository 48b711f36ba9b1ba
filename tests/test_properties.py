"""Property-based tests (hypothesis) on the core data structures and
the analysis invariants."""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.analysis.heterogeneous import poisson_binomial_tail, weighted_average
from repro.analysis.quorum_math import availability, binomial_tail, security
from repro.auth.signatures import canonical_bytes, message_digest
from repro.core.acl import AccessControlList
from repro.core.cache import ACLCache, CacheEntry
from repro.core.rights import AclEntry, Right, Version
from repro.metrics.estimators import percentile, wilson_interval
from repro.sim.rng import derive_seed

# ---------------------------------------------------------------- strategies

users = st.text(alphabet="abcdef", min_size=1, max_size=3)
origins = st.sampled_from(["m0", "m1", "m2", "m3"])
rights = st.sampled_from([Right.USE, Right.MANAGE])


@st.composite
def acl_entries(draw):
    """Entries whose content is a function of (user, right, version).

    In the protocol a version names exactly one operation, so two
    entries with equal key and version always carry the same payload;
    the generator enforces that, otherwise "convergence" is undefined.
    """
    counter = draw(st.integers(1, 20))
    origin = draw(origins)
    return AclEntry(
        user=draw(users),
        right=draw(rights),
        granted=(counter + len(origin) + int(origin[-1])) % 2 == 0,
        version=Version(counter, origin),
    )


entry_lists = st.lists(acl_entries(), max_size=30)


def acl_state(acl: AccessControlList):
    return {
        (e.user, e.right): (e.granted, e.version) for e in acl.snapshot()
    }


# ------------------------------------------------------------------ ACL CRDT


class TestAclMergeProperties:
    @given(entry_lists)
    def test_merge_order_independent(self, entries):
        """LWW merge must converge regardless of delivery order."""
        forward = AccessControlList("a")
        backward = AccessControlList("a")
        forward.merge(entries)
        backward.merge(list(reversed(entries)))
        assert acl_state(forward) == acl_state(backward)

    @given(entry_lists, st.randoms(use_true_random=False))
    def test_merge_shuffle_invariant(self, entries, rng):
        shuffled = list(entries)
        rng.shuffle(shuffled)
        a = AccessControlList("a")
        b = AccessControlList("a")
        a.merge(entries)
        b.merge(shuffled)
        assert acl_state(a) == acl_state(b)

    @given(entry_lists)
    def test_merge_idempotent(self, entries):
        once = AccessControlList("a")
        once.merge(entries)
        twice = AccessControlList("a")
        twice.merge(entries)
        twice.merge(entries)
        assert acl_state(once) == acl_state(twice)

    @given(entry_lists, entry_lists)
    def test_merge_commutative_across_batches(self, xs, ys):
        ab = AccessControlList("a")
        ab.merge(xs)
        ab.merge(ys)
        ba = AccessControlList("a")
        ba.merge(ys)
        ba.merge(xs)
        assert acl_state(ab) == acl_state(ba)

    @given(entry_lists)
    def test_stored_entry_is_max_version(self, entries):
        acl = AccessControlList("a")
        acl.merge(entries)
        for (user, right), (granted, version) in acl_state(acl).items():
            candidates = [
                e for e in entries if e.user == user and e.right == right
            ]
            best = max(candidates, key=lambda e: e.version)
            assert version == best.version
            assert granted == best.granted

    @given(entry_lists)
    def test_snapshot_transfer_preserves_state(self, entries):
        source = AccessControlList("a")
        source.merge(entries)
        replica = AccessControlList("a")
        replica.merge(source.snapshot())
        assert acl_state(replica) == acl_state(source)


# ------------------------------------------------------------------ versions


class TestVersionProperties:
    @given(st.integers(0, 100), origins, st.integers(0, 100), origins)
    def test_total_order_trichotomy(self, c1, o1, c2, o2):
        a, b = Version(c1, o1), Version(c2, o2)
        assert (a < b) + (b < a) + (a == b) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), origins), min_size=2, max_size=10
        )
    )
    def test_sorting_consistent_with_pairwise(self, pairs):
        versions = [Version(c, o) for c, o in pairs]
        ordered = sorted(versions)
        for a, b in zip(ordered, ordered[1:]):
            assert not b < a


# ------------------------------------------------------------------- cache


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(users, st.floats(0, 1000, allow_nan=False)), max_size=20
        ),
        st.floats(0, 1000, allow_nan=False),
    )
    def test_lookup_never_returns_expired(self, stores, now):
        cache = ACLCache("a")
        for user, limit in stores:
            cache.store(
                CacheEntry(user=user, right=Right.USE, limit=limit,
                           version=Version(1, "m"))
            )
        for user, _limit in stores:
            hit = cache.probe(user, Right.USE, now)
            if hit is not None:
                assert now < hit.limit

    @given(st.lists(users, max_size=20), st.floats(0, 100, allow_nan=False))
    def test_flush_then_lookup_misses(self, user_list, now):
        cache = ACLCache("a")
        for user in user_list:
            cache.store(
                CacheEntry(user=user, right=Right.USE, limit=1e9,
                           version=Version(1, "m"))
            )
        for user in user_list:
            cache.flush(user)
            assert cache.probe(user, Right.USE, now) is None

    @given(
        st.lists(
            st.tuples(users, st.floats(0, 1000, allow_nan=False)), max_size=20
        ),
        st.floats(0, 1000, allow_nan=False),
    )
    def test_purge_equivalent_to_lazy_expiry(self, stores, now):
        eager = ACLCache("a")
        lazy = ACLCache("a")
        for user, limit in stores:
            entry = CacheEntry(user=user, right=Right.USE, limit=limit,
                               version=Version(1, "m"))
            eager.store(entry)
            lazy.store(entry)
        eager.purge_expired(now)
        for user, _ in stores:
            assert (eager.probe(user, Right.USE, now) is None) == (
                lazy.probe(user, Right.USE, now) is None
            )


# ------------------------------------------------------------------ analysis


class TestAnalysisProperties:
    @given(st.integers(0, 20), st.integers(-2, 25),
           st.floats(0, 1, allow_nan=False))
    def test_binomial_tail_in_unit_interval(self, n, k, p):
        assert 0.0 <= binomial_tail(n, k, p) <= 1.0

    @given(st.integers(1, 15), st.floats(0, 0.9, allow_nan=False))
    def test_tail_monotone_in_k(self, n, p):
        values = [binomial_tail(n, k, p) for k in range(n + 2)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(1, 12), st.floats(0.01, 0.5, allow_nan=False))
    def test_pa_ps_tradeoff_monotone_in_c(self, m, pi):
        pas = [availability(m, c, pi) for c in range(1, m + 1)]
        pss = [security(m, c, pi) for c in range(1, m + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(pas, pas[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(pss, pss[1:]))

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12),
        st.integers(0, 13),
    )
    def test_poisson_binomial_in_unit_interval(self, probs, k):
        assert 0.0 <= poisson_binomial_tail(probs, k) <= 1.0

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10))
    def test_poisson_binomial_total_mass(self, probs):
        """Tail at 0 is 1; tails telescope down to P[all]."""
        n = len(probs)
        assert poisson_binomial_tail(probs, 0) == 1.0
        all_succeed = math.prod(probs)
        assert poisson_binomial_tail(probs, n) == (
            math.isclose(all_succeed, poisson_binomial_tail(probs, n), abs_tol=1e-9)
            and poisson_binomial_tail(probs, n)
        )

    @given(st.integers(1, 10), st.floats(0.05, 0.95, allow_nan=False))
    def test_uniform_poisson_binomial_equals_binomial(self, n, p):
        for k in range(n + 1):
            assert math.isclose(
                poisson_binomial_tail([p] * n, k),
                binomial_tail(n, k, p),
                abs_tol=1e-9,
            )


# ------------------------------------------------------------------ metrics


class TestEstimatorProperties:
    @given(st.integers(0, 500), st.integers(0, 500))
    def test_wilson_contains_point_estimate(self, successes, extra):
        trials = successes + extra
        if trials == 0:
            return
        low, high = wilson_interval(successes, trials)
        assert low - 1e-9 <= successes / trials <= high + 1e-9
        assert 0.0 <= low <= high <= 1.0

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50),
        st.floats(0, 100, allow_nan=False),
    )
    def test_percentile_bounded_by_extremes(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(st.dictionaries(users, st.floats(0, 1, allow_nan=False), min_size=1))
    def test_weighted_average_bounded(self, values):
        mean = weighted_average(values)
        assert min(values.values()) - 1e-12 <= mean <= max(values.values()) + 1e-12


# --------------------------------------------------------------------- auth


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestWeightedQuorumProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=7,
        ),
        st.integers(0, 30),
    )
    def test_weight_tail_matches_enumeration(self, pairs, threshold):
        """Exact DP agrees with brute-force subset enumeration."""
        from itertools import product as iproduct

        from repro.analysis.weighted import weight_tail

        weights = [w for w, _p in pairs]
        probs = [p for _w, p in pairs]
        expected = 0.0
        for outcome in iproduct((0, 1), repeat=len(pairs)):
            weight = sum(w for w, bit in zip(weights, outcome) if bit)
            if weight >= threshold:
                probability = 1.0
                for bit, p in zip(outcome, probs):
                    probability *= p if bit else (1.0 - p)
                expected += probability
        assert abs(
            weight_tail(weights, probs, threshold) - min(1.0, expected)
        ) < 1e-9

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=8),
        st.integers(0, 9),
    )
    def test_unit_weight_tail_is_poisson_binomial(self, probs, k):
        from repro.analysis.weighted import weight_tail

        assert abs(
            weight_tail([1] * len(probs), probs, k)
            - poisson_binomial_tail(probs, k)
        ) < 1e-9


class TestStableStoreProperties:
    @given(
        st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                st.integers() | st.text(max_size=5),
                lambda c: st.lists(c, max_size=3),
                max_leaves=6,
            ),
            max_size=10,
        )
    )
    def test_roundtrip(self, mapping):
        from repro.sim.storage import StableStore

        store = StableStore()
        for key, value in mapping.items():
            store.write(key, value)
        for key, value in mapping.items():
            assert store.read(key) == value
        assert set(store.keys()) == set(mapping)

    @given(st.lists(st.text(max_size=4), max_size=10))
    def test_mutating_written_lists_never_leaks(self, items):
        from repro.sim.storage import StableStore

        store = StableStore()
        live = list(items)
        store.write("k", live)
        live.append("tamper")
        assert store.read("k") == items


class TestCanonicalProperties:
    @given(json_like)
    def test_digest_deterministic(self, payload):
        assert message_digest(payload) == message_digest(payload)

    @given(st.dictionaries(st.text(max_size=4), st.integers(), max_size=6))
    def test_dict_insertion_order_irrelevant(self, mapping):
        items = list(mapping.items())
        reordered = dict(reversed(items))
        assert canonical_bytes(mapping) == canonical_bytes(reordered)

    @given(st.integers(0, 2**32), st.text(max_size=10))
    def test_derive_seed_range(self, master, name):
        assert 0 <= derive_seed(master, name) < 2**64
