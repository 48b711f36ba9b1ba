"""Tests for crash/recovery injection."""

from __future__ import annotations

import random

import pytest

from repro.sim.failures import CrashRecoveryInjector, schedule_crash, schedule_recovery
from repro.sim.node import Node
from repro.sim.trace import TraceKind


class HookedNode(Node):
    def __init__(self, address):
        super().__init__(address)
        self.crashes = 0
        self.recoveries = 0

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1

    def handle_message(self, src, message):
        pass


class TestNodeFailureState:
    def test_crash_and_recover_toggle_up(self):
        node = HookedNode("n")
        node.crash()
        assert not node.up and node.crashes == 1
        node.recover()
        assert node.up and node.recoveries == 1

    def test_idempotent(self):
        node = HookedNode("n")
        node.crash()
        node.crash()
        assert node.crashes == 1
        node.recover()
        node.recover()
        assert node.recoveries == 1


class TestScheduledFailures:
    def test_schedule_crash_and_recovery(self, env, tracer):
        node = HookedNode("n")
        schedule_crash(env, node, at=10.0, tracer=tracer)
        schedule_recovery(env, node, at=20.0, tracer=tracer)
        env.run(until=15.0)
        assert not node.up
        env.run(until=25.0)
        assert node.up
        assert tracer.counts().get(TraceKind.HOST_CRASHED, 0) == 1
        assert tracer.counts().get(TraceKind.HOST_RECOVERED, 0) == 1

    def test_past_time_rejected(self, env):
        node = HookedNode("n")
        env.run(until=10.0)
        process = schedule_crash(env, node, at=5.0)
        with pytest.raises(ValueError, match="in the past"):
            env.run()
        assert process.ok is False
        assert isinstance(process.value, ValueError)


class TestInjector:
    def test_steady_state_availability_formula(self, env):
        injector = CrashRecoveryInjector(
            env, [HookedNode("n")], mttf=90.0, mttr=10.0
        )
        assert injector.steady_state_availability == pytest.approx(0.9)

    def test_nodes_cycle_through_failures(self, env):
        nodes = [HookedNode(f"n{i}") for i in range(3)]
        CrashRecoveryInjector(
            env, nodes, mttf=50.0, mttr=10.0, rng=random.Random(1)
        )
        env.run(until=2_000.0)
        for node in nodes:
            assert node.crashes > 0
            assert node.recoveries > 0

    def test_measured_availability_near_formula(self, env):
        node = HookedNode("n")
        injector = CrashRecoveryInjector(
            env, [node], mttf=80.0, mttr=20.0, rng=random.Random(2)
        )
        up_time = 0.0
        for _ in range(20_000):
            env.run(until=env.now + 1.0)
            if node.up:
                up_time += 1.0
        assert up_time / 20_000 == pytest.approx(
            injector.steady_state_availability, abs=0.05
        )

    def test_invalid_params_rejected(self, env):
        with pytest.raises(ValueError):
            CrashRecoveryInjector(env, [], mttf=0.0, mttr=1.0)
        with pytest.raises(ValueError):
            CrashRecoveryInjector(env, [], mttf=1.0, mttr=-1.0)
