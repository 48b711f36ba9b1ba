"""Tests for statistical helpers."""

from __future__ import annotations

import pytest

from repro.metrics.estimators import percentile, wilson_interval
from repro.metrics.streaming import StreamingSummary


def _summary(values):
    summary = StreamingSummary()
    for value in values:
        summary.add(value)
    return summary.summary()


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummarize:
    def test_empty_returns_none(self):
        assert _summary([]) is None

    def test_fields(self):
        stats = _summary([1.0, 2.0, 3.0, 4.0])
        assert stats.n == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == pytest.approx(2.5)


class TestWilson:
    def test_all_successes_upper_is_one(self):
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0, abs=1e-9)
        assert low > 0.95

    def test_zero_successes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high < 0.05

    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_more_trials_narrower(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)
