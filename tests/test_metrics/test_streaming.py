"""Streaming mergeable accumulators: associativity, identity, exactness,
reservoir determinism, and agreement with reference values computed in
the test."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.estimators import percentile
from repro.metrics.streaming import (
    AvailabilityAccumulator,
    ExactSum,
    LatencyAccumulator,
    Mergeable,
    OverheadAccumulator,
    StalenessAccumulator,
    StreamingSummary,
)


def _filled_summary(values, seed=11, capacity=64):
    summary = StreamingSummary(seed=seed, capacity=capacity)
    for value in values:
        summary.add(value)
    return summary


class TestExactSum:
    def test_matches_fsum(self):
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        acc = ExactSum()
        for value in values:
            acc.add(value)
        assert acc.value() == math.fsum(values)

    @given(st.lists(st.floats(-1e9, 1e9), max_size=50), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, values, rng):
        ordered = ExactSum()
        for value in values:
            ordered.add(value)
        shuffled = list(values)
        rng.shuffle(shuffled)
        permuted = ExactSum()
        for value in shuffled:
            permuted.add(value)
        assert ordered.value() == permuted.value()

    def test_merge_is_exact_and_non_mutating(self):
        a, b = ExactSum(), ExactSum()
        for value in (1e16, 1.0):
            a.add(value)
        b.add(-1e16)
        merged = a.merge(b)
        assert merged.value() == 1.0
        assert a.value() == 1e16 + 1.0 and b.value() == -1e16

    def test_identity(self):
        a = ExactSum()
        a.add(3.5)
        assert a.merge(ExactSum()).value() == 3.5
        assert ExactSum().merge(a).value() == 3.5


class TestStreamingSummary:
    def test_satisfies_mergeable_protocol(self):
        assert isinstance(StreamingSummary(), Mergeable)
        assert isinstance(AvailabilityAccumulator(), Mergeable)
        assert isinstance(StalenessAccumulator(), Mergeable)
        assert isinstance(OverheadAccumulator(), Mergeable)
        assert isinstance(LatencyAccumulator(), Mergeable)

    def test_exact_below_capacity(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 100) for _ in range(300)]
        got = _filled_summary(values, capacity=1024).summary()
        assert got.n == 300
        assert got.p50 == percentile(values, 50)
        assert got.p95 == percentile(values, 95)
        assert got.p99 == percentile(values, 99)
        assert got.minimum == min(values) and got.maximum == max(values)
        assert got.mean == pytest.approx(sum(values) / 300, rel=1e-12)

    def test_empty_summary_is_none(self):
        assert StreamingSummary().summary() is None

    def test_exact_fields_survive_reservoir_overflow(self):
        rng = random.Random(6)
        values = [rng.uniform(0, 100) for _ in range(500)]
        summary = _filled_summary(values, capacity=32)
        got = summary.summary()
        assert got.n == 500
        assert got.minimum == min(values) and got.maximum == max(values)
        assert got.mean == pytest.approx(math.fsum(values) / 500, rel=1e-12)
        assert len(summary._entries) <= 32

    def test_reservoir_seed_determinism(self):
        rng = random.Random(7)
        values = [rng.uniform(0, 1) for _ in range(200)]
        first = _filled_summary(values, seed=3, capacity=16)
        second = _filled_summary(values, seed=3, capacity=16)
        assert first == second
        assert first.summary() == second.summary()
        different = _filled_summary(values, seed=4, capacity=16)
        assert different.summary().p50 != first.summary().p50

    @given(
        st.lists(st.floats(0, 1e6), min_size=1, max_size=120),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, values, seed):
        thirds = [values[0::3], values[1::3], values[2::3]]
        parts = [
            _filled_summary(chunk, seed=seed + i, capacity=16)
            for i, chunk in enumerate(thirds)
        ]
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left.summary() == right.summary()

    def test_merge_identity(self):
        filled = _filled_summary([1.0, 2.0, 9.0])
        identity = StreamingSummary(seed=99, capacity=64)
        assert filled.merge(identity).summary() == filled.summary()
        assert identity.merge(filled).n == filled.n

    def test_merge_equals_sequential_feed(self):
        # Splitting a stream across two accumulators and merging gives
        # the same observable state as one accumulator fed everything,
        # when both use the same seed (the in-worker-reduce shape).
        rng = random.Random(8)
        values = [rng.uniform(0, 10) for _ in range(40)]
        whole = _filled_summary(values, seed=1, capacity=1024)
        left = _filled_summary(values[:25], seed=1, capacity=1024)
        right = _filled_summary(values[25:], seed=2, capacity=1024)
        merged = left.merge(right)
        assert merged.summary().n == whole.summary().n
        assert merged.summary().minimum == whole.summary().minimum
        assert merged.summary().mean == pytest.approx(whole.summary().mean)

    def test_merge_capacity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamingSummary(capacity=8).merge(StreamingSummary(capacity=16))

    def test_merge_does_not_mutate_operands(self):
        a = _filled_summary([1.0, 2.0])
        b = _filled_summary([3.0])
        before_a, before_b = a.summary(), b.summary()
        a.merge(b)
        assert a.summary() == before_a and b.summary() == before_b


def _observe_all(accumulator, observations):
    for observed in observations:
        accumulator.observe(observed)
    return accumulator


class _FakeDecision:
    def __init__(self, allowed, latency):
        self.allowed = allowed
        self.latency = latency


class _FakeObserved:
    def __init__(self, authorized, allowed, latency, user="u", time=0.0):
        self.application = "app"
        self.user = user
        self.time = time
        self.authorized = authorized
        self.decision = _FakeDecision(allowed, latency)


class TestAvailabilityAccumulator:
    def _sample(self, seed=0, n=60):
        rng = random.Random(seed)
        return [
            _FakeObserved(rng.random() < 0.8, rng.random() < 0.7, rng.uniform(0, 2))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("bound", [None, 1.0])
    def test_matches_list_scan(self, bound):
        observations = self._sample()
        report = _observe_all(AvailabilityAccumulator(bound), observations).report()
        authorized = [o for o in observations if o.authorized]
        timely = [
            o for o in authorized
            if o.decision.allowed and (bound is None or o.decision.latency <= bound)
        ]
        assert report.authorized_attempts == len(authorized)
        assert report.authorized_allowed == len(timely)
        assert report.unauthorized_attempts == len(observations) - len(authorized)
        assert report.unauthorized_allowed == sum(
            1 for o in observations if not o.authorized and o.decision.allowed
        )
        assert report.availability == len(timely) / len(authorized)

    def test_merge_matches_whole(self):
        observations = self._sample(seed=2, n=80)
        whole = _observe_all(AvailabilityAccumulator(), observations)
        left = _observe_all(AvailabilityAccumulator(), observations[:30])
        right = _observe_all(AvailabilityAccumulator(), observations[30:])
        assert left.merge(right) == whole
        assert left.merge(right).report() == whole.report()

    def test_merge_bound_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityAccumulator(1.0).merge(AvailabilityAccumulator(2.0))


class _FakeOracle:
    """Violation iff past t=100; grace iff within (90, 100]."""

    def violation(self, application, user, time):
        return time > 100.0

    def in_grace(self, application, user, time):
        return 90.0 < time <= 100.0


class TestStalenessAccumulator:
    def test_finalize_splits_grace_and_violations(self):
        acc = StalenessAccumulator()
        # (authorized, allowed, latency, user, time)
        for args in (
            (False, True, 0.0, "u1", 95.0),   # grace
            (False, True, 5.0, "u2", 100.0),  # violation: decided at 105
            (False, True, 0.0, "u3", 10.0),   # neither
            (False, False, 0.0, "u4", 99.0),  # denied: ignored
            (True, True, 0.0, "u5", 99.0),    # authorized: ignored
        ):
            acc.observe(_FakeObserved(*args))
        assert acc.finalize(_FakeOracle()) == (1, 1)

    def test_merge(self):
        a, b = StalenessAccumulator(), StalenessAccumulator()
        a.observe(_FakeObserved(False, True, 0.0, "u1", 95.0))
        b.observe(_FakeObserved(False, True, 0.0, "u2", 101.0))
        assert a.merge(b).finalize(_FakeOracle()) == (1, 1)


class TestOverheadAccumulator:
    def test_merge_sums_kinds(self):
        a, b = OverheadAccumulator(), OverheadAccumulator()
        for _ in range(3):
            a.observe("QueryRequest")
        b.observe("QueryRequest")
        b.observe("AppPayload")
        merged = a.merge(b)
        assert merged.by_kind == {"QueryRequest": 4, "AppPayload": 1}
        report = merged.report(duration=2.0)
        assert report.control_messages == 4 and report.app_messages == 1
        assert report.control_rate == 2.0


class TestLatencyAccumulator:
    def test_exact_per_reason_below_capacity(self):
        rng = random.Random(9)
        samples = [
            (rng.choice(["cache", "verified"]), rng.uniform(0, 1))
            for _ in range(100)
        ]
        acc = LatencyAccumulator(seed=1, capacity=1024)
        for reason, latency in samples:
            acc.observe(reason, latency)
        got = acc.summaries()
        assert set(got) == {"cache", "verified"}
        for reason, summary in got.items():
            values = [latency for bucket, latency in samples if bucket == reason]
            assert summary.n == len(values)
            assert summary.p50 == percentile(values, 50)
            assert summary.minimum == min(values)

    def test_merge_unions_buckets(self):
        a = LatencyAccumulator(seed=1)
        b = LatencyAccumulator(seed=1)
        a.observe("cache", 0.1)
        b.observe("verified", 0.9)
        b.observe("cache", 0.2)
        merged = a.merge(b)
        summaries = merged.summaries()
        assert summaries["cache"].n == 2 and summaries["verified"].n == 1
