"""Streaming accumulators: exactness, reservoir determinism, and
agreement with reference values computed in the test."""

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
    StalenessAccumulator,
    StreamingSummary,
    _mix,
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


class TestStreamingSummary:
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
        assert sorted(first._entries) == sorted(second._entries)
        assert first.summary() == second.summary()
        different = _filled_summary(values, seed=4, capacity=16)
        assert different.summary().p50 != first.summary().p50

    def test_survivors_are_the_values_with_the_smallest_keys(self):
        """Bottom-k by ``_mix(seed, arrival index)``, whatever else an
        entry stores: the survivors and the printed percentiles follow."""
        rng = random.Random(8)
        values = [rng.uniform(0, 1) for _ in range(500)]
        summary = _filled_summary(values, seed=5, capacity=32)
        got = summary.summary()
        kept = sorted(range(500), key=lambda index: _mix(5, index))[:32]
        assert sorted(value for *_key, value in summary._entries) == sorted(
            values[index] for index in kept
        )
        assert got.p50 == percentile([values[index] for index in kept], 50)


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
