"""Tests for the unreliable network."""

from __future__ import annotations

import gc
import random
import weakref
from typing import Any, List, Tuple

import pytest

from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network, ShiftedExponentialLatency
from repro.sim.node import Node
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import TraceKind, Tracer


class Recorder(Node):
    """Test node that records everything it receives."""

    def __init__(self, address: str):
        super().__init__(address)
        self.received: List[Tuple[float, str, Any]] = []

    def handle_message(self, src, message):
        self.received.append((self.env.now, src, message))


@pytest.fixture
def pair(network):
    a = Recorder("a")
    b = Recorder("b")
    network.register(a)
    network.register(b)
    return a, b


class TestSpawn:
    def test_finished_process_is_collectable(self, env, network, pair):
        # A long-lived node (a live host serves requests for hours) must
        # not retain the processes it has finished running.
        a, _b = pair

        def request():
            yield env.timeout(1.0)

        # ``Process`` is slotted (no weakrefs); the generator it owns
        # lives exactly as long as the process does.
        generator = request()
        ref = weakref.ref(generator)
        a.spawn(generator)
        del generator
        env.run()
        gc.collect()
        assert ref() is None


class TestDelivery:
    def test_unicast_delivers_with_latency(self, env, network, pair):
        a, b = pair
        a.send("b", "hello")
        env.run()
        assert b.received == [(0.05, "a", "hello")]

    def test_self_send_is_instant(self, env, network, pair):
        a, _b = pair
        a.send("a", "note")
        env.run()
        assert a.received == [(0.0, "a", "note")]

    def test_multicast_reaches_all(self, env, network, pair):
        a, b = pair
        c = Recorder("c")
        network.register(c)
        a.multicast(["b", "c"], "fan-out")
        env.run()
        assert len(b.received) == 1 and len(c.received) == 1

    def test_fifo_not_guaranteed_but_deterministic(self, env, network, pair):
        a, b = pair
        a.send("b", "first")
        a.send("b", "second")
        env.run()
        assert [m for (_t, _s, m) in b.received] == ["first", "second"]

    def test_unknown_destination_raises(self, network, pair):
        a, _b = pair
        with pytest.raises(ValueError):
            a.send("ghost", "x")

    def test_unknown_source_raises(self, network):
        with pytest.raises(ValueError):
            network.send("ghost", "also-ghost", "x")

    def test_duplicate_registration_rejected(self, network, pair):
        with pytest.raises(ValueError):
            network.register(Recorder("a"))


class TestDrops:
    def test_partitioned_link_drops(self, env, network, connectivity, pair):
        a, b = pair
        connectivity.set_down("a", "b")
        a.send("b", "lost")
        env.run()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_down_destination_drops(self, env, network, pair):
        a, b = pair
        b.crash()
        a.send("b", "lost")
        env.run()
        assert b.received == []

    def test_down_source_drops(self, env, network, pair):
        a, b = pair
        a.crash()
        a.send("b", "lost")
        env.run()
        assert b.received == []

    def test_destination_crashing_in_flight_drops(self, env, network, pair):
        a, b = pair
        a.send("b", "lost")

        def crasher():
            yield env.timeout(0.01)
            b.crash()

        env.process(crasher())
        env.run()
        assert b.received == []

    def test_without_recheck_mid_flight_partition_still_delivers(
        self, env, network, connectivity, pair
    ):
        a, b = pair
        a.send("b", "made it")

        def partitioner():
            yield env.timeout(0.01)
            connectivity.set_down("a", "b")

        env.process(partitioner())
        env.run()
        assert len(b.received) == 1

    def test_random_loss(self, env, tracer):
        network = Network(
            env,
            latency=FixedLatency(0.0),
            loss_rate=0.5,
            tracer=tracer,
            rng=random.Random(4),
        )
        a, b = Recorder("a"), Recorder("b")
        network.register(a)
        network.register(b)
        for _ in range(200):
            a.send("b", "maybe")
        env.run()
        assert 60 < len(b.received) < 140  # ~100 expected

    def test_invalid_loss_rate_rejected(self, env):
        with pytest.raises(ValueError):
            Network(env, loss_rate=1.0)


def _world(seed: int = 7, latency=None, **net_kwargs):
    """A fresh 4-node world with a logging tracer and a seeded rng, so
    two identically-seeded worlds evolve identically."""
    env = Environment()
    tracer = Tracer(env, keep_log=True)
    network = Network(
        env,
        latency=latency or FixedLatency(0.05),
        tracer=tracer,
        rng=random.Random(seed),
        **net_kwargs,
    )
    nodes = [Recorder(f"n{i}") for i in range(4)]
    for node in nodes:
        network.register(node)
    return env, tracer, network, nodes


class TestSendMany:
    """``send_many`` — and ``multicast``, which is built on it — must be
    observably identical to a ``send`` loop."""

    ITEMS = [(f"n{i}", ("payload", i)) for i in (1, 2, 3, 1)]
    FANOUT = ["n1", "n2", "n3", "n1"]
    SHARED = ("payload", 0)

    def _inputs(self):
        """``(items, batched send)`` for each batched entry point."""
        return [
            (self.ITEMS, lambda network: network.send_many("n0", self.ITEMS)),
            (
                [(dst, self.SHARED) for dst in self.FANOUT],
                lambda network: network.multicast("n0", self.FANOUT, self.SHARED),
            ),
        ]

    def _run_both(self, crash_source=False, partition=None, **net_kwargs):
        for items, send_batch in self._inputs():
            worlds = []
            for _ in range(2):
                connectivity = ScriptedConnectivity()
                world = _world(connectivity=connectivity, **net_kwargs)
                if crash_source:
                    world[3][0].crash()
                if partition:
                    connectivity.partition(partition)
                worlds.append(world)
            batched, unbatched = worlds
            send_batch(batched[2])
            for dst, message in items:
                unbatched[2].send("n0", dst, message)
            batched[0].run()
            unbatched[0].run()
            yield items, batched, unbatched

    def _observables(self, world):
        env, tracer, network, nodes = world
        return (
            [node.received for node in nodes],
            network.messages_sent,
            network.messages_dropped,
            network.messages_duplicated,
            network.messages_delivered,
            tracer.counts(),
        )

    def test_matches_unbatched_loop(self):
        for _items, batched, unbatched in self._run_both():
            assert self._observables(batched) == self._observables(unbatched)

    def test_matches_loop_under_loss_and_duplication(self):
        runs = self._run_both(loss_rate=0.3, duplicate_rate=0.3)
        for _items, batched, unbatched in runs:
            assert self._observables(batched) == self._observables(unbatched)

    def test_matches_loop_when_source_down(self):
        for items, batched, unbatched in self._run_both(crash_source=True):
            assert self._observables(batched) == self._observables(unbatched)
            assert batched[2].messages_dropped == len(items)

    def test_matches_loop_under_partition(self):
        # n0 is cut off from n2 and n3: the batch drops exactly the sends
        # a loop drops, and only those.
        runs = self._run_both(partition=[["n0", "n1"], ["n2", "n3"]])
        for items, batched, unbatched in runs:
            assert self._observables(batched) == self._observables(unbatched)
            assert 0 < batched[2].messages_dropped < len(items)
            assert [message for _t, _src, message in batched[3][1].received] == [
                message for dst, message in items if dst == "n1"
            ]

    def test_matches_loop_with_stochastic_latency(self):
        # Per-destination delays differ, so batching is impossible; the
        # fallback must still consume the rng in exactly send()'s order.
        runs = self._run_both(latency=ShiftedExponentialLatency(0.01, 0.04))
        for _items, batched, unbatched in runs:
            assert self._observables(batched) == self._observables(unbatched)

    def test_self_destination_falls_back(self):
        items = [("n1", "a"), ("n0", "loopback"), ("n2", "b")]
        env, _tracer, network, nodes = _world()
        network.send_many("n0", items)
        env.run()
        # Self-delivery is instant; the rest land at the fixed latency.
        assert nodes[0].received == [(0.0, "n0", "loopback")]
        assert nodes[1].received == [(0.05, "n0", "a")]
        assert nodes[2].received == [(0.05, "n0", "b")]

    def test_batch_is_one_scheduler_insertion(self):
        env, _tracer, network, _nodes = _world()
        before = len(env._queue)
        network.send_many("n0", self.ITEMS)
        assert len(env._queue) == before + 1  # vs one entry per message

    def test_on_sent_runs_per_item_even_for_drops(self):
        env, _tracer, network, nodes = _world()
        nodes[0].crash()
        sent = []
        network.send_many("n0", self.ITEMS, on_sent=lambda d, m: sent.append((d, m)))
        env.run()
        assert sent == self.ITEMS

    def test_unknown_destination_raises(self):
        _env, _tracer, network, _nodes = _world()
        with pytest.raises(ValueError):
            network.send_many("n0", [("n1", "ok"), ("ghost", "boom")])

    def test_unknown_source_raises(self):
        _env, _tracer, network, _nodes = _world()
        with pytest.raises(ValueError):
            network.send_many("ghost", [("n1", "x")])

    def test_node_send_many_requires_attachment(self):
        lonely = Recorder("lonely")
        with pytest.raises(RuntimeError):
            lonely.send_many([("n1", "x")])


class TestTraceIntegration:
    def test_send_and_delivery_traced(self, env, network, tracer, pair):
        a, _b = pair
        a.send("b", "x")
        env.run()
        assert tracer.counts().get(TraceKind.MSG_SENT, 0) == 1
        assert tracer.counts().get(TraceKind.MSG_DELIVERED, 0) == 1

    def test_drop_traced_with_reason(self, env, network, tracer, connectivity, pair):
        a, _b = pair
        connectivity.set_down("a", "b")
        a.send("b", "x")
        env.run()
        drops = [r for r in tracer.log if r.kind == TraceKind.MSG_DROPPED]
        assert drops[0].data["reason"] == "partitioned"

    def test_counters(self, env, network, connectivity, pair):
        a, _b = pair
        a.send("b", "ok")
        connectivity.set_down("a", "b")
        a.send("b", "dropped")
        env.run()
        assert network.messages_sent == 2
        assert network.messages_delivered == 1
        assert network.messages_dropped == 1


class TestReachable:
    def test_reflects_partition_and_crashes(self, env, network, connectivity, pair):
        a, b = pair

        def delivered(payload):
            a.send("b", payload)
            env.run()
            return bool(b.received) and b.received[-1][2] == payload

        assert delivered("up")
        connectivity.set_down("a", "b")
        assert not delivered("partitioned")
        connectivity.set_up("a", "b")
        b.crash()
        assert not delivered("crashed")
        b.recover()
        assert delivered("recovered")


class TestLatencyModels:
    def test_fixed(self):
        assert FixedLatency(0.2).constant_delay() == 0.2

    def test_fixed_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.1)

    def test_shifted_exponential_has_floor(self):
        model = ShiftedExponentialLatency(minimum=0.02, mean_extra=0.03)
        rng = random.Random(0)
        samples = [model.sample(rng, "a", "b") for _ in range(500)]
        assert min(samples) >= 0.02
        assert sum(samples) / len(samples) == pytest.approx(0.05, rel=0.2)

    def test_shifted_exponential_zero_extra(self):
        model = ShiftedExponentialLatency(minimum=0.02, mean_extra=0.0)
        assert model.sample(random.Random(0), "a", "b") == 0.02
