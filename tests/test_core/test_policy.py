"""Tests for AccessPolicy — the paper's knobs."""

from __future__ import annotations

import pytest

from repro.core.policy import (
    UNBOUNDED_ATTEMPTS,
    AccessPolicy,
    DeltaMode,
    ExhaustedAction,
    QueryStrategy,
)


class TestValidation:
    def test_defaults_are_valid(self):
        AccessPolicy()

    def test_check_quorum_positive(self):
        with pytest.raises(ValueError):
            AccessPolicy(check_quorum=0)

    def test_te_positive(self):
        with pytest.raises(ValueError):
            AccessPolicy(expiry_bound=0.0)

    def test_clock_bound_at_least_one(self):
        with pytest.raises(ValueError):
            AccessPolicy(clock_bound=0.99)

    def test_attempts_positive_or_none(self):
        AccessPolicy(max_attempts=None)
        AccessPolicy(max_attempts=1)
        with pytest.raises(ValueError):
            AccessPolicy(max_attempts=0)

    def test_freeze_requires_positive_ti(self):
        with pytest.raises(ValueError):
            AccessPolicy(use_freeze=True, inaccessibility_period=0.0)

    def test_freeze_requires_ti_below_te(self):
        with pytest.raises(ValueError):
            AccessPolicy(
                use_freeze=True, inaccessibility_period=300.0, expiry_bound=300.0
            )

    def test_query_timeout_positive(self):
        with pytest.raises(ValueError):
            AccessPolicy(query_timeout=0.0)

    def test_negative_intervals_rejected(self):
        with pytest.raises(ValueError):
            AccessPolicy(retry_backoff=-1.0)
        with pytest.raises(ValueError):
            AccessPolicy(update_retry_interval=-1.0)

    def test_validate_for_manager_count(self):
        policy = AccessPolicy(check_quorum=4)
        policy.validate_for(4)
        with pytest.raises(ValueError):
            policy.validate_for(3)
        with pytest.raises(ValueError):
            policy.validate_for(0)


class TestDerived:
    def test_te_local_is_te_over_b(self):
        policy = AccessPolicy(expiry_bound=100.0, clock_bound=1.25)
        assert policy.te_local == pytest.approx(80.0)

    def test_te_local_with_freeze_subtracts_ti(self):
        """Section 3.3: Ti + te <= Te, with clock rates accounted for."""
        policy = AccessPolicy(
            expiry_bound=100.0,
            clock_bound=1.25,
            use_freeze=True,
            inaccessibility_period=20.0,
        )
        assert policy.te_local == pytest.approx(64.0)
        # Worst-case real time consumed: Ti + b * te == Te.
        assert 20.0 + 1.25 * policy.te_local == pytest.approx(100.0)

    def test_update_quorum_complements_check_quorum(self):
        policy = AccessPolicy(check_quorum=3)
        assert policy.update_quorum(10) == 8
        # Intersection: any C managers and any update quorum overlap.
        assert policy.check_quorum + policy.update_quorum(10) == 10 + 1

    def test_update_quorum_extremes(self):
        assert AccessPolicy(check_quorum=1).update_quorum(5) == 5
        assert AccessPolicy(check_quorum=5).update_quorum(5) == 1

    def test_effective_check_quorum_under_freeze(self):
        policy = AccessPolicy(
            check_quorum=3, use_freeze=True, inaccessibility_period=10.0
        )
        assert policy.effective_check_quorum == 1

    def test_required_responses_is_check_quorum(self):
        policy = AccessPolicy(check_quorum=3)
        assert policy.required_responses(5) == 3

    def test_required_responses_clamped_to_manager_set(self):
        # A stale name-service answer may yield fewer than C managers;
        # the round must still be completable against what exists.
        policy = AccessPolicy(check_quorum=3)
        assert policy.required_responses(2) == 2
        assert policy.required_responses(0) == 0

    def test_required_responses_under_freeze(self):
        policy = AccessPolicy(
            check_quorum=3, use_freeze=True, inaccessibility_period=10.0
        )
        assert policy.required_responses(5) == 1  # freeze: any one manager


class TestPresets:
    def test_security_first(self):
        policy = AccessPolicy.security_first(n_managers=5)
        assert policy.check_quorum == 5
        assert policy.max_attempts is UNBOUNDED_ATTEMPTS
        assert policy.exhausted_action is ExhaustedAction.DENY
        assert policy.update_quorum(5) == 1  # any single manager revokes

    def test_availability_first(self):
        policy = AccessPolicy.availability_first(n_managers=5, attempts=4)
        assert policy.check_quorum == 1
        assert policy.max_attempts == 4
        assert policy.exhausted_action is ExhaustedAction.ALLOW

    def test_preset_overrides(self):
        policy = AccessPolicy.security_first(n_managers=10, query_timeout=9.0)
        assert policy.query_timeout == 9.0


class TestEnums:
    def test_query_strategies(self):
        assert {
            QueryStrategy.SEQUENTIAL, QueryStrategy.PARALLEL, QueryStrategy.QUORUM
        } == set(QueryStrategy)
        assert AccessPolicy().query_strategy is QueryStrategy.QUORUM
        # The enum's value is accepted too (JSON policies: fuzz schedules).
        assert AccessPolicy(query_strategy="parallel").query_strategy is QueryStrategy.PARALLEL
        with pytest.raises(ValueError):
            AccessPolicy(query_strategy="broadcast")

    def test_delta_modes(self):
        assert {DeltaMode.FULL_ROUND_TRIP, DeltaMode.HALF_ROUND_TRIP} == set(DeltaMode)
