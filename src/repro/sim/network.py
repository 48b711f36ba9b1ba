"""Unreliable wide-area network simulation.

The paper's network component "provides (unreliable) point-to-point and
multicast communication".  This module models exactly that: messages
between attached :class:`~repro.sim.node.Node` objects are delayed by a
pluggable :class:`LatencyModel` and dropped whenever the pluggable
connectivity model (see :mod:`repro.sim.partitions`) says the endpoints
are partitioned, whenever either endpoint is crashed, or whenever the
random loss process fires.

There are deliberately no acknowledgements, retransmissions, or FIFO
guarantees here — reliability is the protocol's job, which is the whole
point of the paper.

Hot path
--------
``send`` -> reachability -> latency -> schedule -> ``_deliver`` is the
inner loop of every experiment, so it is engineered to allocate and
recompute as little as possible per message:

* Reachability answers are served from an epoch cache: connectivity
  models bump a topology epoch on every transition, and between bumps
  the network answers ``reachable`` from a flat component-id table (two
  dict lookups) or a per-pair memo — see
  :class:`~repro.sim.partitions.ConnectivityModel`.  Host up/down state
  is deliberately layered *outside* the cache (a plain attribute check),
  so crash/recovery transitions need no invalidation to stay exact.
* Trace publishes go through the guarded tracer API
  (:meth:`~repro.sim.trace.Tracer.wants` /
  :meth:`~repro.sim.trace.Tracer.bump`): when nobody subscribes to the
  ``msg_*`` kinds, no payload dict is ever built.
* Constant-latency models advertise their delay up front
  (:meth:`LatencyModel.constant_delay`), skipping the per-message sample
  call; stochastic models keep drawing per message, in the same order
  as always, so seeded runs stay byte-identical.
* Deliveries are queued as :class:`_Delivery` entries — bare schedulable
  objects, not full events — and ``send_many`` (which ``multicast``
  calls) with a constant-latency model batches the whole fan-out into a
  single queue insertion.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..net.transport import Transport
from .engine import Environment
from .node import Address, Node
from .partitions import ConnectivityModel, FullConnectivity
from .trace import TraceKind, Tracer

__all__ = [
    "Network",
    "LatencyModel",
    "FixedLatency",
    "ShiftedExponentialLatency",
]


class LatencyModel:
    """Samples one-way message latency in simulated seconds."""

    def sample(self, rng: random.Random, src: Address, dst: Address) -> float:
        raise NotImplementedError

    def constant_delay(self) -> Optional[float]:
        """The model's delay when it is constant, else ``None``.

        A non-None answer lets the network skip the per-message
        ``sample`` call (and batch fan-outs); models that consume
        randomness must return ``None`` so their draw order is
        preserved.
        """
        return None


class FixedLatency(LatencyModel):
    """Constant latency; the default for deterministic unit tests."""

    def __init__(self, delay: float = 0.05):
        if delay < 0:
            raise ValueError("latency must be non-negative")
        self.delay = delay

    def sample(self, rng: random.Random, src: Address, dst: Address) -> float:
        return self.delay

    def constant_delay(self) -> float:
        return self.delay


class ShiftedExponentialLatency(LatencyModel):
    """``minimum + Exp(mean_extra)`` — a common WAN round-trip shape:
    a propagation floor plus heavy-tailed queueing delay."""

    def __init__(self, minimum: float = 0.02, mean_extra: float = 0.03):
        if minimum < 0 or mean_extra < 0:
            raise ValueError("latency parameters must be non-negative")
        self.minimum = minimum
        self.mean_extra = mean_extra

    def sample(self, rng: random.Random, src: Address, dst: Address) -> float:
        extra = rng.expovariate(1.0 / self.mean_extra) if self.mean_extra > 0 else 0.0
        return self.minimum + extra

    def constant_delay(self) -> Optional[float]:
        return self.minimum if self.mean_extra == 0 else None


class _Delivery:
    """Queue entry for one in-flight unicast message.

    Mimics just enough of a processed event (``_process``) for the
    engine to run it, without paying for an ``Event`` allocation, a
    closure, and a callback list per message — the same trick as the
    engine's ``_Bootstrap``.
    """

    __slots__ = ("network", "src", "dst", "message")

    _cancelled = False  # read by the engine's dead-entry check on pop

    def __init__(self, network: "Network", src: Address, dst: Address, message: Any):
        self.network = network
        self.src = src
        self.dst = dst
        self.message = message

    def _process(self) -> None:
        self.network._deliver(self.src, self.dst, self.message)


class _FanoutDelivery:
    """Queue entry for a batched constant-latency fan-out of
    ``(dst, message)`` pairs, e.g. a multicast, a planner's per-manager
    queries or a freeze monitor's nonce'd pings.

    All surviving copies land at the same instant, so one scheduler
    insertion delivers the whole batch in the order the per-message
    events would have fired.
    """

    __slots__ = ("network", "src", "items")

    _cancelled = False  # read by the engine's dead-entry check on pop

    def __init__(self, network: "Network", src: Address, items: List[tuple]):
        self.network = network
        self.src = src
        self.items = items

    def _process(self) -> None:
        network = self.network
        src = self.src
        deliver = network._deliver
        for dst, message in self.items:
            deliver(src, dst, message)


class Network(Transport):
    """The in-simulation :class:`~repro.net.transport.Transport`:
    connects nodes; applies latency, partitions, crashes, and loss.

    Parameters
    ----------
    env:
        Simulation environment.
    connectivity:
        A :class:`~repro.sim.partitions.ConnectivityModel`; defaults to
        full connectivity.
    latency:
        A :class:`LatencyModel`; defaults to 50 ms fixed.
    loss_rate:
        Independent per-message drop probability on top of partitions
        (models congestion loss distinct from full partition).
    duplicate_rate:
        Independent probability that a delivered message is delivered
        twice (at-least-once links; the protocol's acks and idempotent
        merges must tolerate this).
    tracer:
        Optional tracer; message sends/deliveries/drops are published.
    rng:
        Random stream for latency and loss draws.

    Reachability is decided once, at send time: a partition that begins
    while a message is in flight does not kill it (a crash of the
    destination does).
    """

    def __init__(
        self,
        env: Environment,
        connectivity: Optional[ConnectivityModel] = None,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        tracer: Optional[Tracer] = None,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if not 0.0 <= duplicate_rate < 1.0:
            raise ValueError(
                f"duplicate_rate must be in [0, 1), got {duplicate_rate}"
            )
        self.env = env
        self.connectivity = connectivity or FullConnectivity()
        self.latency = latency or FixedLatency()
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        self.tracer = tracer or Tracer(env)
        self.rng = rng or random.Random(0)
        self.nodes: Dict[Address, Node] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        # Epoch-cache state: valid while the connectivity model's epoch
        # matches ``_reach_epoch``.  ``_component_table`` serves answers
        # with two flat lookups when the model's state is a clean
        # partition; ``_pair_cache`` memoises per-pair answers otherwise.
        self._reach_epoch = -1
        self._component_table: Optional[Dict[Address, int]] = None
        self._pair_cache: Dict[tuple, bool] = {}
        self._fixed_delay = self.latency.constant_delay()
        self.connectivity.attach(env, self.rng, self.tracer)

    # -- membership -----------------------------------------------------------
    def register(self, node: Node) -> Node:
        """Attach ``node``; its address must be unique."""
        if node.address in self.nodes:
            raise ValueError(f"duplicate address {node.address!r}")
        self.nodes[node.address] = node
        node.attach(self)
        return node

    def node(self, address: Address) -> Node:
        return self.nodes[address]

    def addresses(self) -> list[Address]:
        return list(self.nodes)

    # -- reachability -------------------------------------------------------------
    def _connected(self, a: Address, b: Address) -> bool:
        """Connectivity-model answer for ``a != b``, via the epoch cache."""
        connectivity = self.connectivity
        if connectivity.epoch != self._reach_epoch:
            self._reach_epoch = connectivity.epoch
            self._component_table = connectivity.component_table()
            self._pair_cache.clear()
        table = self._component_table
        if table is not None:
            return table.get(a, -1) == table.get(b, -1)
        cache = self._pair_cache
        key = (a, b)
        answer = cache.get(key)
        if answer is None:
            answer = cache[key] = connectivity.is_reachable(a, b)
        return answer

    def reachable(self, a: Address, b: Address) -> bool:
        """True when ``a`` and ``b`` are both up and not partitioned.

        This is the *instantaneous* truth used by the delivery decision;
        protocol code must never call it (nodes cannot observe it).
        """
        node_a, node_b = self.nodes.get(a), self.nodes.get(b)
        if node_a is None or node_b is None:
            return False
        if not node_a.up or not node_b.up:
            return False
        return a == b or self._connected(a, b)

    # -- transmission -----------------------------------------------------------
    def _admit(self, src: Address, src_node: Node, dst: Address, message: Any) -> int:
        """Count, trace and admit one unicast from ``src_node``.

        The single admission path behind ``send`` and ``send_many``:
        unknown destination -> count -> trace -> source down ->
        partition -> loss -> duplicate.  Returns how many copies to
        deliver (0, 1 or 2); drops are counted and traced here.
        """
        if dst not in self.nodes:
            raise ValueError(f"unknown destination {dst!r}")
        self.messages_sent += 1
        tracer = self.tracer
        if tracer.wants(TraceKind.MSG_SENT):
            tracer.publish(
                TraceKind.MSG_SENT, src, dst=dst, message_kind=type(message).__name__
            )
        else:
            tracer.bump(TraceKind.MSG_SENT)
        if not src_node.up:
            self._drop(src, dst, message, "source down")
            return 0
        if src != dst and not self._connected(src, dst):
            self._drop(src, dst, message, "partitioned")
            return 0
        rng = self.rng
        if self.loss_rate > 0 and rng.random() < self.loss_rate:
            self._drop(src, dst, message, "random loss")
            return 0
        if self.duplicate_rate > 0 and rng.random() < self.duplicate_rate:
            self.messages_duplicated += 1
            return 2
        return 1

    def send(self, src: Address, dst: Address, message: Any) -> None:
        """Fire-and-forget unicast from ``src`` to ``dst``."""
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source {src!r}")
        copies = self._admit(src, src_node, dst, message)
        fixed = self._fixed_delay
        env = self.env
        for _ in range(copies):
            if src == dst:
                delay = 0.0
            elif fixed is not None:
                delay = fixed
            else:
                delay = self.latency.sample(self.rng, src, dst)
            env._schedule(_Delivery(self, src, dst, message), delay)

    def send_many(
        self,
        src: Address,
        items: Iterable[tuple],
        on_sent: Optional[Callable[[Address, Any], None]] = None,
    ) -> None:
        """Unicast a batch of ``(dst, message)`` pairs from one source.

        Observably identical to ``for dst, m in items: send(src, dst, m)``
        — every pair goes through the same admission path — but with a
        constant-latency model the surviving copies (which all land at
        the same instant) are queued as a single scheduler insertion
        instead of one per message.  ``on_sent(dst, message)`` is
        invoked right after each pair's send bookkeeping, so callers can
        interleave their own per-destination traces exactly as an
        unbatched loop would.
        """
        fixed = self._fixed_delay
        items = list(items)
        if fixed is None or any(dst == src for dst, _ in items):
            # Stochastic latency (per-destination delays differ) or a
            # self-destination (delivered at zero delay): per-pair sends.
            for dst, message in items:
                self.send(src, dst, message)
                if on_sent is not None:
                    on_sent(dst, message)
            return
        src_node = self.nodes.get(src)
        if src_node is None:
            raise ValueError(f"unknown source {src!r}")
        admit = self._admit
        survivors: List[tuple] = []
        for dst, message in items:
            survivors.extend(((dst, message),) * admit(src, src_node, dst, message))
            if on_sent is not None:
                on_sent(dst, message)
        if survivors:
            self.env._schedule(_FanoutDelivery(self, src, survivors), fixed)

    def _deliver(self, src: Address, dst: Address, message: Any) -> None:
        dst_node = self.nodes.get(dst)
        if dst_node is None or not dst_node.up:
            self._drop(src, dst, message, "destination down")
            return
        self.messages_delivered += 1
        tracer = self.tracer
        if tracer.wants(TraceKind.MSG_DELIVERED):
            tracer.publish(
                TraceKind.MSG_DELIVERED,
                dst,
                src=src,
                message_kind=type(message).__name__,
            )
        else:
            tracer.bump(TraceKind.MSG_DELIVERED)
        dst_node.handle_message(src, message)

    def _drop(self, src: Address, dst: Address, message: Any, reason: str) -> None:
        self.messages_dropped += 1
        tracer = self.tracer
        if tracer.wants(TraceKind.MSG_DROPPED):
            tracer.publish(
                TraceKind.MSG_DROPPED,
                src,
                dst=dst,
                message_kind=type(message).__name__,
                reason=reason,
            )
        else:
            tracer.bump(TraceKind.MSG_DROPPED)

    def __repr__(self) -> str:
        return (
            f"<Network nodes={len(self.nodes)} sent={self.messages_sent} "
            f"delivered={self.messages_delivered} dropped={self.messages_dropped}>"
        )
