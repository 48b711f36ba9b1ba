"""Tests for the mobile-client duty-cycle model."""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Environment
from repro.sim.partitions import DutyCycleModel
from repro.sim.trace import Tracer


def attach(model, seed=0):
    env = Environment()
    model.attach(env, random.Random(seed), Tracer(env))
    return env


def _reachable(model, a, b):
    table = model.component_table()
    return table.get(a, -1) == table.get(b, -1)


class TestDutyCycleModel:
    def test_stationary_fraction_formula(self):
        model = DutyCycleModel(["h0"], mean_connected=60.0, mean_disconnected=40.0)
        assert model.disconnected_fraction == pytest.approx(0.4)

    def test_infrastructure_always_connected(self):
        model = DutyCycleModel(["h0"], mean_connected=1.0, mean_disconnected=100.0)
        env = attach(model)
        env.run(until=50.0)
        assert _reachable(model, "m0", "m1")  # non-targets unaffected

    def test_disconnection_cuts_all_links_of_target(self):
        model = DutyCycleModel(["h0"], mean_connected=1.0, mean_disconnected=1e9)
        env = attach(model, seed=1)
        env.run(until=100.0)  # almost surely disconnected by now
        assert not ("h0" not in model.component_table())
        assert not _reachable(model, "h0", "m0")
        assert not _reachable(model, "m0", "h0")

    def test_long_run_disconnected_fraction(self):
        model = DutyCycleModel(["h0"], mean_connected=8.0, mean_disconnected=2.0)
        env = attach(model, seed=2)
        down = 0
        steps = 20_000
        for _ in range(steps):
            env.run(until=env.now + 1.0)
            if not ("h0" not in model.component_table()):
                down += 1
        assert down / steps == pytest.approx(0.2, abs=0.04)

    def test_multiple_targets_independent(self):
        model = DutyCycleModel(
            ["h0", "h1"], mean_connected=5.0, mean_disconnected=5.0
        )
        env = attach(model, seed=3)
        agree = 0
        steps = 5_000
        for _ in range(steps):
            env.run(until=env.now + 1.0)
            if ("h0" not in model.component_table()) == ("h1" not in model.component_table()):
                agree += 1
        assert 0.35 < agree / steps < 0.65

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DutyCycleModel(["h0"], mean_connected=0.0, mean_disconnected=1.0)
        with pytest.raises(ValueError):
            DutyCycleModel(["h0"], mean_connected=1.0, mean_disconnected=-1.0)
