"""Tests for the O(C/Te) / O(C) / O(R) cost model."""

from __future__ import annotations

import pytest

from repro.analysis.costs import (
    CostModel,
    miss_delay,
    miss_messages,
    steady_state_check_rate,
    steady_state_message_rate,
    worst_case_delay,
)
from repro.core.policy import AccessPolicy, QueryStrategy


class TestRates:
    def test_check_rate_is_inverse_te(self):
        assert steady_state_check_rate(50.0) == pytest.approx(0.02)

    def test_message_rate_scales_with_c(self):
        assert steady_state_message_rate(4, 100.0) == pytest.approx(
            2 * steady_state_message_rate(2, 100.0)
        )

    def test_message_rate_inverse_in_te(self):
        assert steady_state_message_rate(2, 50.0) == pytest.approx(
            2 * steady_state_message_rate(2, 100.0)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            steady_state_check_rate(0.0)
        with pytest.raises(ValueError):
            steady_state_message_rate(0, 10.0)


class TestMissDelay:
    def test_parallel_constant_in_c(self):
        rtt = 0.1
        delays = [
            miss_delay(
                AccessPolicy(check_quorum=c, query_strategy=QueryStrategy.PARALLEL),
                rtt,
            )
            for c in (1, 3, 5)
        ]
        assert delays == [rtt] * 3

    def test_sequential_linear_in_c(self):
        rtt = 0.1
        policy = AccessPolicy(check_quorum=4, query_strategy=QueryStrategy.SEQUENTIAL)
        assert miss_delay(policy, rtt) == pytest.approx(0.4)

    def test_quorum_is_one_round_trip_and_2c_messages(self):
        policy = AccessPolicy(check_quorum=2)  # the default strategy
        assert policy.query_strategy is QueryStrategy.QUORUM
        assert miss_delay(policy, 0.1) == 0.1
        assert miss_messages(policy, 3) == 4
        assert miss_messages(policy.with_(check_quorum=5), 3) == 6  # clamped to M
        assert miss_messages(
            policy.with_(query_strategy=QueryStrategy.SEQUENTIAL), 3
        ) == 4
        assert miss_messages(
            policy.with_(query_strategy=QueryStrategy.PARALLEL), 3
        ) == 6

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            miss_delay(AccessPolicy(), -1.0)


class TestWorstCaseDelay:
    def test_infinite_for_unbounded_r(self):
        assert worst_case_delay(AccessPolicy(max_attempts=None)) == float("inf")

    def test_linear_in_r(self):
        def delay(r):
            return worst_case_delay(
                AccessPolicy(
                    max_attempts=r, query_timeout=1.0, retry_backoff=0.5,
                    query_strategy=QueryStrategy.PARALLEL,
                )
            )

        assert delay(1) == pytest.approx(1.0)
        assert delay(2) == pytest.approx(2.5)
        assert delay(4) == pytest.approx(5.5)

    def test_sequential_multiplies_by_c(self):
        policy = AccessPolicy(
            check_quorum=3, max_attempts=1, query_timeout=1.0,
            query_strategy=QueryStrategy.SEQUENTIAL,
        )
        assert worst_case_delay(policy) == pytest.approx(3.0)


    def test_quorum_may_wait_out_two_batches_per_attempt(self):
        policy = AccessPolicy(max_attempts=2, query_timeout=1.0, retry_backoff=0.5)
        assert worst_case_delay(policy) == pytest.approx(4.5)


class TestCostModel:
    def test_bundles_everything(self):
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=100.0, clock_bound=1.0,
            max_attempts=2, query_timeout=1.0, retry_backoff=0.0,
        )
        model = CostModel(policy=policy, round_trip=0.1)
        assert model.check_rate == pytest.approx(0.01)
        assert model.message_rate == pytest.approx(0.02)
        assert model.cache_miss_delay == pytest.approx(0.1)
        # The default QUORUM strategy: C managers, then the rest.
        assert model.unreachable_delay == pytest.approx(4.0)
