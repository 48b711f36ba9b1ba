"""Tests for the PA/PS binomial analysis."""

from __future__ import annotations

import math

import pytest

from repro.analysis.quorum_math import (
    availability,
    best_check_quorum,
    binomial_tail,
    quorum_curve,
    security,
)


class TestBinomialTail:
    def test_k_zero_is_one(self):
        assert binomial_tail(10, 0, 0.3) == 1.0
        assert binomial_tail(10, -2, 0.3) == 1.0

    def test_k_above_n_is_zero(self):
        assert binomial_tail(5, 6, 0.9) == 0.0

    def test_certain_success(self):
        assert binomial_tail(5, 5, 1.0) == 1.0

    def test_certain_failure(self):
        assert binomial_tail(5, 1, 0.0) == 0.0

    def test_single_trial(self):
        assert binomial_tail(1, 1, 0.25) == pytest.approx(0.25)

    def test_complement_of_pmf_sum(self):
        n, k, p = 12, 7, 0.37
        pmf_below = sum(
            math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k)
        )
        assert binomial_tail(n, k, p) == pytest.approx(1.0 - pmf_below)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            binomial_tail(-1, 0, 0.5)
        with pytest.raises(ValueError):
            binomial_tail(5, 1, 1.5)


class TestFormulas:
    def test_availability_matches_definition(self):
        # P[at least C of M managers accessible], accessibility 1-Pi.
        assert availability(10, 4, 0.2) == pytest.approx(
            binomial_tail(10, 4, 0.8)
        )

    def test_security_counts_origin_in_quorum(self):
        # Origin needs M-C of the other M-1.
        assert security(10, 4, 0.2) == pytest.approx(binomial_tail(9, 6, 0.8))

    def test_pi_zero_is_perfect(self):
        for c in range(1, 6):
            assert availability(5, c, 0.0) == 1.0
            assert security(5, c, 0.0) == 1.0

    def test_single_manager(self):
        assert availability(1, 1, 0.3) == pytest.approx(0.7)
        assert security(1, 1, 0.3) == 1.0  # update quorum is just itself

    def test_c_equals_m_security_perfect(self):
        # Update quorum of 1: the origin alone suffices.
        assert security(8, 8, 0.5) == 1.0

    def test_c_equals_one_availability_near_one(self):
        assert availability(8, 1, 0.2) == pytest.approx(1.0 - 0.2**8)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            availability(5, 0, 0.1)
        with pytest.raises(ValueError):
            availability(5, 6, 0.1)
        with pytest.raises(ValueError):
            security(5, 6, 0.1)


class TestMonotonicity:
    def test_availability_decreases_in_c(self):
        values = [availability(10, c, 0.2) for c in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_security_increases_in_c(self):
        values = [security(10, c, 0.2) for c in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_availability_decreases_in_pi(self):
        values = [availability(10, 5, pi) for pi in (0.0, 0.1, 0.2, 0.4)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestCurveHelpers:
    def test_curve_covers_all_c(self):
        points = quorum_curve(6, 0.1)
        assert [p.c for p in points] == list(range(1, 7))

    def test_best_check_quorum_near_m_over_2(self):
        """The paper: both metrics near 1 for C around M/2."""
        for m in (6, 8, 10, 12):
            best = best_check_quorum(m, 0.1)
            assert abs(best.c - m / 2) <= 2
            assert best.worst > 0.98

    def test_worst_is_min(self):
        point = quorum_curve(10, 0.1)[0]
        assert point.worst == min(point.availability, point.security)
