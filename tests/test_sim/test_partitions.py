"""Tests for the partition models."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Environment
from repro.sim.partitions import (
    FullConnectivity,
    PairEpochModel,
    SampledConnectivity,
    ScriptedConnectivity,
    pair_key,
)
from repro.sim.trace import Tracer


def attach(model, seed=0):
    env = Environment()
    model.attach(env, random.Random(seed), Tracer(env))
    return env


class TestPairKey:
    def test_symmetric(self):
        assert pair_key("a", "b") == pair_key("b", "a")

    def test_canonical_order(self):
        assert pair_key("z", "a") == ("a", "z")


class TestFullConnectivity:
    def test_always_reachable(self):
        model = FullConnectivity()
        attach(model)
        assert model.is_reachable("x", "y")


class TestScriptedConnectivity:
    def test_links_start_up(self):
        model = ScriptedConnectivity()
        attach(model)
        assert model.is_reachable("a", "b")

    def test_set_down_and_up(self):
        model = ScriptedConnectivity()
        attach(model)
        model.set_down("a", "b")
        assert not model.is_reachable("a", "b")
        assert not model.is_reachable("b", "a")  # symmetric
        model.set_up("b", "a")
        assert model.is_reachable("a", "b")

    def test_isolate_and_reconnect(self):
        model = ScriptedConnectivity()
        attach(model)
        model.isolate("h", ["m0", "m1", "h"])  # own address skipped
        assert not model.is_reachable("h", "m0")
        assert not model.is_reachable("h", "m1")
        assert model.is_reachable("m0", "m1")
        model.reconnect("h", ["m0", "m1"])
        assert model.is_reachable("h", "m0")

    def test_partition_and_heal(self):
        model = ScriptedConnectivity()
        attach(model)
        model.partition([["a", "b"], ["c", "d"]])
        assert model.is_reachable("a", "b")
        assert not model.is_reachable("a", "c")
        model.heal()
        assert model.is_reachable("a", "c")

    def test_groups_separate(self):
        model = ScriptedConnectivity()
        attach(model)
        model.partition([["a", "b"], ["c"]])
        assert model.is_reachable("a", "b")
        assert not model.is_reachable("a", "c")
        assert model.component_table() == {"a": 0, "b": 0, "c": 1}

    def test_unlisted_share_component(self):
        model = ScriptedConnectivity()
        attach(model)
        model.partition([["a"]])
        assert model.is_reachable("x", "y")
        assert not model.is_reachable("a", "x")
        assert model.component_table() == {"a": 0}

    def test_heal_revives_downed_links(self):
        # Regression (PR-7 known bug): heal() used to remove only the
        # grouping, leaving explicitly downed links severed — unlike the
        # live backend, which clears every blocked pair.
        model = ScriptedConnectivity()
        attach(model)
        model.set_down("a", "c")
        model.partition([["a", "b"], ["c"]])
        model.heal()
        assert model.is_reachable("a", "c")
        assert model.is_reachable("a", "b")

    def test_heal_revives_isolated_node(self):
        model = ScriptedConnectivity()
        attach(model)
        model.isolate("h", ["m0", "m1"])
        assert not model.is_reachable("h", "m0")
        model.heal()
        assert model.is_reachable("h", "m0")
        assert model.is_reachable("h", "m1")

    def test_heal_restores_component_table(self):
        model = ScriptedConnectivity()
        attach(model)
        model.set_down("a", "b")
        assert model.component_table() is None
        model.heal()
        assert model.component_table() == {}


class TestSampledConnectivity:
    def test_stable_between_resamples(self):
        model = SampledConnectivity(0.5)
        attach(model, seed=3)
        first = model.is_reachable("a", "b")
        for _ in range(10):
            assert model.is_reachable("a", "b") == first

    def test_resample_changes_draws(self):
        model = SampledConnectivity(0.5)
        attach(model, seed=3)
        outcomes = set()
        for _ in range(50):
            model.resample()
            outcomes.add(model.is_reachable("a", "b"))
        assert outcomes == {True, False}

    def test_stationary_fraction(self):
        model = SampledConnectivity(0.2)
        attach(model, seed=4)
        downs = 0
        trials = 3000
        for _ in range(trials):
            model.resample()
            if not model.is_reachable("a", "b"):
                downs += 1
        assert downs / trials == pytest.approx(0.2, abs=0.03)

    def test_pairs_independent(self):
        model = SampledConnectivity(0.5)
        attach(model, seed=5)
        agree = 0
        trials = 2000
        for _ in range(trials):
            model.resample()
            if model.is_reachable("a", "b") == model.is_reachable("a", "c"):
                agree += 1
        assert agree / trials == pytest.approx(0.5, abs=0.05)


class TestPairEpochModel:
    def test_zero_pi_reachable_without_processes(self):
        model = PairEpochModel(0.0)
        env = attach(model)
        assert model.is_reachable("a", "b")
        env.run(until=100)
        assert model.is_reachable("a", "b")

    def test_long_run_down_fraction(self):
        model = PairEpochModel(0.2, mean_outage=10.0)
        env = attach(model, seed=6)
        down_time = 0.0
        step = 1.0
        steps = 20_000
        for _ in range(steps):
            if not model.is_reachable("a", "b"):
                down_time += step
            env.run(until=env.now + step)
        assert down_time / (steps * step) == pytest.approx(0.2, abs=0.04)

    def test_mean_uptime_matches_stationarity(self):
        model = PairEpochModel(0.25, mean_outage=30.0)
        assert model.mean_uptime == pytest.approx(90.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PairEpochModel(1.0)
        with pytest.raises(ValueError):
            PairEpochModel(0.1, mean_outage=0.0)

    def test_toggles_end_cleanly_when_pi_drops_to_zero(self):
        # Setting pi to 0 stops every pair's renewal process: each ends
        # with a normal return, not an exception the engine swallows.
        env = Environment()
        toggles = []
        spawn = env.process

        def capture(generator, name=None):
            process = spawn(generator, name=name)
            toggles.append(process)
            return process

        env.process = capture
        model = PairEpochModel(0.5, mean_outage=1.0)
        model.attach(env, random.Random(7), Tracer(env))
        for pair in [("a", "b"), ("a", "c"), ("b", "c")]:
            model.is_reachable(*pair)
        env.run(until=20.0)
        model.pi = 0.0
        model.bump_epoch()
        env.run(until=500.0)
        assert len(toggles) == 3
        for process in toggles:
            assert not process.is_alive
            assert process.ok, process.value
        assert model.is_reachable("a", "b")
