"""Tests for drifting local clocks."""

from __future__ import annotations

import random

import pytest

from repro.sim.clock import ClockFactory, LocalClock


class TestLocalClock:
    def test_perfect_clock_tracks_real_time(self, env):
        clock = LocalClock(env)
        env.run(until=42.0)
        assert clock.now() == pytest.approx(42.0)

    def test_offset_shifts_reading(self, env):
        clock = LocalClock(env, offset=1000.0)
        assert clock.now() == pytest.approx(1000.0)
        env.run(until=10.0)
        assert clock.now() == pytest.approx(1010.0)

    def test_slow_clock_measures_less(self, env):
        clock = LocalClock(env, rate=0.5)
        env.run(until=20.0)
        assert clock.now() == pytest.approx(10.0)

    def test_fast_clock_measures_more(self, env):
        clock = LocalClock(env, rate=2.0)
        env.run(until=10.0)
        assert clock.now() == pytest.approx(20.0)

    def test_clock_created_mid_run_starts_at_offset(self, env):
        env.run(until=100.0)
        clock = LocalClock(env, rate=0.5, offset=7.0)
        assert clock.now() == pytest.approx(7.0)
        env.run(until=102.0)
        assert clock.now() == pytest.approx(8.0)

    def test_nonpositive_rate_rejected(self, env):
        with pytest.raises(ValueError):
            LocalClock(env, rate=0.0)
        with pytest.raises(ValueError):
            LocalClock(env, rate=-1.0)

    def test_paper_bound_te_over_b_expires_within_te(self, env):
        """The Section 3.2 argument: a clock with rate >= 1/b measures
        at least te = Te/b local units within Te real units."""
        b = 1.2
        te_bound = 60.0
        te_local = te_bound / b
        clocks = [LocalClock(env, rate=rate) for rate in (1.0 / b, 0.9, 1.0, 1.1)]
        env.run(until=te_bound)
        for clock in clocks:
            assert clock.now() >= te_local - 1e-9


class TestClockFactory:
    def test_rates_respect_bound(self, env):
        factory = ClockFactory(env, b=1.1, rng=random.Random(1))
        for _ in range(100):
            clock = factory.make()
            assert 1.0 / 1.1 - 1e-12 <= clock.rate <= 1.0

    def test_perfect_clock(self, env):
        clock = ClockFactory(env, b=1.5).perfect()
        assert clock.rate == 1.0 and clock.offset == 0.0

    def test_b_below_one_rejected(self, env):
        with pytest.raises(ValueError):
            ClockFactory(env, b=0.9)

    def test_max_rate_must_admit_slowest(self, env):
        with pytest.raises(ValueError):
            ClockFactory(env, b=1.1, max_rate=0.5)

    def test_deterministic_given_seed(self, env):
        rates_a = [ClockFactory(env, rng=random.Random(7)).make().rate
                   for _ in range(3)]
        rates_b = [ClockFactory(env, rng=random.Random(7)).make().rate
                   for _ in range(3)]
        assert rates_a == rates_b
