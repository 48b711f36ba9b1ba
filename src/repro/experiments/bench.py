"""The ``repro bench`` cell runner: micro timings of the simulator hot path.

Every empirical number in EXPERIMENTS.md is produced by pushing
simulated messages through ``Network.send`` -> connectivity check ->
latency sampling -> ``Tracer.publish``, so this module times exactly
that path plus message-heavy protocol cells, the codec and a live
socket fan-out, and prints best and median per-op times.

It is a diagnostic, not a judge: timings are not compared against any
recorded baseline.  Performance claims are judged end to end by
``bench_e2e`` with ``tools/ab_pairs.py`` running parent and change on the
same machine.  What does gate here are the in-cell assertions (the
codec's size and speed ratios, live dead-timer elision and the bounded
event queue), which fail
the run when the mechanism they pin stops working.

Workloads are fully deterministic (fixed seeds, fixed message counts);
only the wall-clock measurement varies between runs.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..argtypes import positive
from ..protocols.messaging import reply_deadline, reply_won
from ..sim.engine import _COMPACT_FLOOR, Environment
from ..sim.network import FixedLatency, Network
from ..sim.node import Node
from ..sim.partitions import ScriptedConnectivity
from ..sim.trace import Tracer

__all__ = ["BENCH_SCHEMA", "BENCHMARKS", "run_suite", "main"]

#: Format tag of the document :func:`run_suite` returns.
BENCH_SCHEMA = "repro-bench-v1"


def format_seconds(seconds: float) -> str:
    """Human scale for per-op times spanning nanoseconds to seconds."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f}µs"
    return f"{seconds * 1e9:.1f}ns"


class _Sink(Node):
    """Counts deliveries; the cheapest possible message handler."""

    def __init__(self, address: str):
        super().__init__(address)
        self.received = 0

    def handle_message(self, src, message) -> None:
        self.received += 1


def _message_network(n_nodes: int) -> Tuple[Environment, Network, List[_Sink]]:
    env = Environment()
    connectivity = ScriptedConnectivity()
    network = Network(
        env,
        connectivity=connectivity,
        latency=FixedLatency(0.001),
        tracer=Tracer(env),
        rng=random.Random(12345),
    )
    nodes = [network.register(_Sink(f"n{i}")) for i in range(n_nodes)]
    # An active partition plus one downed link makes the connectivity
    # check do real work: most sends are delivered, some are dropped.
    members = [node.address for node in nodes]
    connectivity.partition([members[: n_nodes - 2], members[n_nodes - 2 :]])
    return env, network, nodes


def bench_msg_send_deliver(messages: int) -> Dict[str, Any]:
    """The message-heavy microbench: a unicast send/deliver loop."""
    n_nodes = 16
    env, network, nodes = _message_network(n_nodes)
    payload = ("payload", 42)
    started = time.perf_counter()
    send = network.send
    for i in range(messages):
        src = nodes[i % n_nodes].address
        dst = nodes[(i * 7 + 3) % n_nodes].address
        send(src, dst, payload)
    env.run()
    elapsed = time.perf_counter() - started
    delivered = sum(node.received for node in nodes)
    return {
        "elapsed": elapsed,
        "meta": {
            "messages": messages,
            "delivered": delivered,
            "dropped": network.messages_dropped,
        },
    }


def bench_msg_multicast(rounds: int) -> Dict[str, Any]:
    """Fan-out path: one sender multicasting to every other node."""
    n_nodes = 16
    env, network, nodes = _message_network(n_nodes)
    payload = ("update", 1)
    others = [node.address for node in nodes[1:]]
    src = nodes[0].address
    started = time.perf_counter()
    multicast = network.multicast
    for _ in range(rounds):
        multicast(src, others, payload)
    env.run()
    elapsed = time.perf_counter() - started
    delivered = sum(node.received for node in nodes)
    return {
        "elapsed": elapsed,
        "meta": {"rounds": rounds, "fanout": len(others), "delivered": delivered},
    }


def bench_reachable(queries: int) -> Dict[str, Any]:
    """Tight ``Network.reachable`` loop under an active partition."""
    n_nodes = 16
    env, network, nodes = _message_network(n_nodes)
    addresses = [node.address for node in nodes]
    reachable = network.reachable
    started = time.perf_counter()
    hits = 0
    for i in range(queries):
        a = addresses[i % n_nodes]
        b = addresses[(i * 5 + 1) % n_nodes]
        if reachable(a, b):
            hits += 1
    elapsed = time.perf_counter() - started
    return {"elapsed": elapsed, "meta": {"queries": queries, "reachable": hits}}


def bench_cache_hit_checks(checks: int) -> Dict[str, Any]:
    """Figure 3 fast path: access checks served from ``ACL_cache(A)``."""
    from ..core.policy import AccessPolicy
    from ..core.system import AccessControlSystem

    system = AccessControlSystem.experiment_cell(
        AccessPolicy(check_quorum=2, expiry_bound=1e9),
        one_way=0.01, n_managers=3, n_hosts=1,
    )
    system.seed_grant("app", "u")
    host = system.hosts[0]
    warm = host.request_access("app", "u")
    system.run(until=5.0)
    assert warm.value.allowed
    started = time.perf_counter()
    processes = [host.request_access("app", "u") for _ in range(checks)]
    system.run(until=system.env.now + 1.0)
    elapsed = time.perf_counter() - started
    allowed = sum(1 for process in processes if process.value.allowed)
    return {"elapsed": elapsed, "meta": {"checks": checks, "allowed": allowed}}


def _bench_cell(cell: int, repeats: int) -> Dict[str, Any]:
    """Run one fuzz-derived experiment cell ``repeats`` times, timed.

    These cells drive the full protocol stack (hosts, managers, quorum
    or freeze dissemination, partitions, crashes, workloads) through the
    network hot path — the end-to-end shape every experiment table has.
    """
    from ..verify.fuzz import run_cell
    from ..verify.schedules import generate_schedule

    schedule = generate_schedule(7, cell)
    observations = 0
    started = time.perf_counter()
    for _ in range(repeats):
        result = run_cell(schedule)
        assert result.ok, result.violations
        observations += result.stats["observations"]
    elapsed = time.perf_counter() - started
    return {
        "elapsed": elapsed,
        "meta": {
            "cell": cell,
            "repeats": repeats,
            "observations": observations,
            "describe": schedule.describe(),
        },
    }


def bench_cell_quorum(repeats: int) -> Dict[str, Any]:
    """Message-heavy experiment cell using quorum dissemination."""
    return _bench_cell(2, repeats)


def bench_cell_freeze(repeats: int) -> Dict[str, Any]:
    """Message-heavy experiment cell using freeze dissemination."""
    return _bench_cell(3, repeats)


#: ``cell_sharded``'s bound on ``acl_bytes_per_entry``: 25 bytes of
#: columns plus the index's share at 60 % occupancy (8 x 1.125 / 0.6 = 15),
#: with 10 % slack.
_ACL_BYTES_PER_ENTRY = 44


def bench_cell_sharded(repeats: int) -> Dict[str, Any]:
    """The sharded mega-population cell at bench scale.

    Drives the identity-interning + sharded-manager-group stack end to
    end: a Zipf/diurnal workload over interned principals against K=3
    independent manager groups, threshold-seeded through the columnar
    bootstrap path.  Times the per-run wall-clock of everything the
    10^5-10^6 configurations exercise (arithmetic name ranges, the O(1)
    harmonic sampler, shard routing, streamed seeding) at a size small
    enough to repeat.  The in-cell gate is ACL memory per seeded entry,
    columns plus index (``_ACL_BYTES_PER_ENTRY``).
    """
    from ..workloads.mega import run_mega_cell

    attempts = 0
    started = time.perf_counter()
    for index in range(repeats):
        document = run_mega_cell(
            n_principals=20_000,
            shards=3,
            n_managers=3,
            n_hosts=3,
            n_apps=3,
            duration=60.0,
            access_rate=30.0,
            update_rate=0.2,
            seed=index,
        )
        assert document["violations"] == 0, document
        assert document["acl_bytes_per_entry"] <= _ACL_BYTES_PER_ENTRY, (
            f"ACL memory grew: {document['acl_bytes_per_entry']} bytes/entry"
        )
        attempts += document["attempts"]
    elapsed = time.perf_counter() - started
    return {
        "elapsed": elapsed,
        "meta": {
            "repeats": repeats,
            "principals": 20_000,
            "shards": 3,
            "attempts": attempts,
            "acl_bytes_per_entry": document["acl_bytes_per_entry"],
        },
    }


def bench_timer_elision(races: int) -> Dict[str, Any]:
    """Both won-race shapes: every round leaves one dead timer.

    A requester mirrors ``retry_until_acked``: a reply beats a 1 s
    timer in an ``any_of`` and the loser is detached and marked dead.
    A client mirrors ``request`` (``UserClient.invoke``): a 0.1 s reply
    beats a 30 s ``reply_deadline``, so without compaction 300 dead entries
    would sit ahead of the clock.  ``dead_pops`` in the meta proves
    elision is live; ``max_queue`` proves compaction bounds the queue by
    its live entries, not by rate x timeout.
    """
    env = Environment()
    max_queue = 0

    def requester():
        for _ in range(races):
            reply = env.timeout(0.1, value="reply")
            timer = env.timeout(1.0)
            yield env.any_of([reply, timer])

    def client():
        nonlocal max_queue
        for _ in range(races):
            arrival = env.event()
            timer = reply_deadline(env, arrival, 30.0)
            arrival.succeed("reply", delay=0.1)
            yield arrival
            reply_won(timer)
            max_queue = max(max_queue, len(env._queue))

    env.process(requester())
    env.process(client())
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    assert env.dead_pops == 2 * races, "elision missed dead timers"
    assert max_queue < 2 * _COMPACT_FLOOR, f"dead timers piled up: {max_queue} queued"
    return {
        "elapsed": elapsed,
        "meta": {"races": races, "dead_pops": env.dead_pops, "max_queue": max_queue},
    }


def bench_batched_fanout(rounds: int) -> Dict[str, Any]:
    """Distinct-message fan-out: ``send_many`` batching one sender's
    per-destination payloads (the planner/freeze-ping shape) into a
    single scheduler insertion per round."""
    n_nodes = 16
    env, network, nodes = _message_network(n_nodes)
    others = [node.address for node in nodes[1:]]
    src = nodes[0].address
    started = time.perf_counter()
    send_many = network.send_many
    for round_index in range(rounds):
        send_many(
            src,
            [(dst, ("query", round_index, i)) for i, dst in enumerate(others)],
        )
    env.run()
    elapsed = time.perf_counter() - started
    delivered = sum(node.received for node in nodes)
    return {
        "elapsed": elapsed,
        "meta": {
            "rounds": rounds,
            "fanout": len(others),
            "delivered": delivered,
        },
    }


def bench_wire_codec(messages: int) -> Dict[str, Any]:
    """Binary wire codec vs the tagged-JSON dump format, steady-state mix.

    Streams a deterministic QueryRequest/QueryResponse/RevokeNotify mix
    (the shape a live cell's links carry once warm, with dense ``u<i>``
    users) through both codecs, full encode+decode round trips, with
    the binary side using one warmed session dictionary pair — exactly
    the per-connection state a live link holds.  Binary segments are the
    only live wire; JSON survives as the fixture and trace dump format,
    and runs here as the reference the binary codec must beat.  The
    timed elapsed is the *binary* leg; the JSON leg runs alongside so
    the meta carries the A/B.  Two in-cell gates pin the win itself:
    binary bytes must be at least 2.5x smaller and the binary round
    trip at least 2x faster than JSON on this mix.
    """
    from ..core import messages as msg
    from ..core.rights import Right, Version
    from ..net.codec import decode_message, encode_message
    from ..net.codec_bin import BinaryDecoder, BinaryEncoder

    mix = []
    for i in range(64):
        user = f"u{i % 8}"
        version = Version(1_700_000_000_000 + i, f"m{i % 3}")
        mix.append(
            msg.QueryRequest(
                query_id=i, application="app", user=user, right=Right.USE
            )
        )
        mix.append(
            msg.QueryResponse(
                query_id=i, application="app", user=user, right=Right.USE,
                verdict="grant", te=float(i), version=version, manager=f"m{i % 3}",
            )
        )
        mix.append(
            msg.RevokeNotify(
                application="app", user=user, right=Right.USE,
                version=version, notify_id=i,
            )
        )

    # JSON leg: stateless by design, nothing to warm.
    started = time.perf_counter()
    json_bytes = 0
    for i in range(messages):
        blob = encode_message(mix[i % len(mix)])
        json_bytes += len(blob)
        decode_message(blob)
    json_elapsed = time.perf_counter() - started

    # Binary leg: one session dictionary pair, warmed over the mix the
    # way a live link warms on its first flush.
    encoder, decoder = BinaryEncoder(), BinaryDecoder()
    for message in mix:
        decoder.decode(encoder.encode(message))
    started = time.perf_counter()
    bin_bytes = 0
    for i in range(messages):
        blob = encoder.encode(mix[i % len(mix)])
        bin_bytes += len(blob)
        decoder.decode(blob)
    elapsed = time.perf_counter() - started

    bytes_ratio = json_bytes / bin_bytes if bin_bytes else float("inf")
    time_ratio = json_elapsed / elapsed if elapsed else float("inf")
    assert bytes_ratio >= 2.5, (
        f"binary codec must cut steady-state bytes at least 2.5x, got "
        f"{bytes_ratio:.2f}x ({json_bytes} -> {bin_bytes} bytes)"
    )
    assert time_ratio >= 2.0, (
        f"binary round trip must beat JSON at least 2x, got {time_ratio:.2f}x "
        f"({json_elapsed:.3f}s JSON vs {elapsed:.3f}s binary)"
    )
    return {
        "elapsed": elapsed,
        "meta": {
            "messages": messages,
            "json_bytes": json_bytes,
            "bin_bytes": bin_bytes,
            "bytes_ratio": round(bytes_ratio, 2),
            "json_seconds": round(json_elapsed, 4),
            "time_ratio": round(time_ratio, 2),
            "dictionary": encoder.dictionary_size,
        },
    }


def bench_live_fanout(messages: int) -> Dict[str, Any]:
    """Closed burst fan-out over real sockets.

    Two :class:`~repro.net.runtime.LiveRuntime` processes on localhost:
    one pinger bursts pings at eight responder
    nodes sharing the far endpoint, and the cell times the wall clock
    until every pong is back.  Each runtime-pass flush coalesces the
    burst into HMAC'd multi-message segments, so this times the whole
    live fast path — codec, interning dictionary, segment sealing,
    frame reader, and the flush bound — end to end.  The meta records
    the coalescing factor actually achieved on the wire.
    """
    import asyncio

    from ..core.messages import Ping, Pong
    from ..net.runtime import LiveRuntime
    from ..sim.node import Node

    n_sinks = 8

    class _Pinger(Node):
        def __init__(self):
            super().__init__("pinger")
            self.pongs = 0
            self.done = asyncio.get_running_loop().create_future()

        def handle_message(self, src, message):
            if isinstance(message, Pong):
                self.pongs += 1
                if self.pongs >= messages and not self.done.done():
                    self.done.set_result(None)

    class _Responder(Node):
        def handle_message(self, src, message):
            if isinstance(message, Ping):
                self.send(src, Pong(nonce=message.nonce, sender=self.address))

    async def scenario():
        left = LiveRuntime(b"bench-wire", time_scale=1.0)
        right = LiveRuntime(b"bench-wire", time_scale=1.0)
        pinger = _Pinger()
        left.register(pinger)
        for i in range(n_sinks):
            right.register(_Responder(f"sink{i}"))
        directory = {"pinger": ("127.0.0.1", await left.start())}
        right_port = await right.start()
        directory.update(
            {f"sink{i}": ("127.0.0.1", right_port) for i in range(n_sinks)}
        )
        left.set_peers(directory)
        right.set_peers(directory)
        try:
            # Warm the connections + dictionaries outside the window.
            warm = asyncio.get_running_loop().create_future()
            original = pinger.handle_message

            def warm_handler(src, message):
                if not warm.done():
                    warm.set_result(None)

            pinger.handle_message = warm_handler
            left.call_soon(lambda: pinger.send("sink0", Ping(nonce=0, sender="pinger")))
            await asyncio.wait_for(warm, timeout=10.0)
            pinger.handle_message = original

            def burst():
                for i in range(messages):
                    pinger.send(
                        f"sink{i % n_sinks}", Ping(nonce=i + 1, sender="pinger")
                    )

            started = time.perf_counter()
            left.call_soon(burst)
            await asyncio.wait_for(pinger.done, timeout=60.0)
            elapsed = time.perf_counter() - started
            return elapsed, left.transport.wire_stats()
        finally:
            await left.stop()
            await right.stop()

    elapsed, wire = asyncio.run(scenario())
    assert wire["segment_msgs_sent"] >= messages
    assert wire["msgs_per_segment"] > 1.0, (
        f"fan-out failed to coalesce: {wire['msgs_per_segment']:.2f} msgs/segment"
    )
    return {
        "elapsed": elapsed,
        "meta": {
            "messages": messages,
            "fanout": n_sinks,
            "segments_sent": wire["segments_sent"],
            "msgs_per_segment": round(wire["msgs_per_segment"], 1),
            "bytes_sent": wire["bytes_sent"],
        },
    }


#: name -> (function, full-size argument, quick-size argument).
BENCHMARKS: Dict[str, Tuple[Callable[[int], Dict[str, Any]], int, int]] = {
    "msg_send_deliver": (bench_msg_send_deliver, 120_000, 20_000),
    "msg_multicast": (bench_msg_multicast, 8_000, 1_500),
    "reachable": (bench_reachable, 300_000, 50_000),
    "cache_hit_checks": (bench_cache_hit_checks, 4_000, 1_000),
    "cell_quorum": (bench_cell_quorum, 10, 2),
    "cell_freeze": (bench_cell_freeze, 10, 2),
    "cell_sharded": (bench_cell_sharded, 6, 2),
    "timer_elision": (bench_timer_elision, 150_000, 30_000),
    "batched_fanout": (bench_batched_fanout, 8_000, 1_500),
    "wire_codec": (bench_wire_codec, 200_000, 30_000),
    "live_fanout": (bench_live_fanout, 20_000, 4_000),
}


def run_suite(
    quick: bool = False, repeats: int = 3, names: Optional[List[str]] = None
) -> Dict[str, Any]:
    """Run the suite and return a ``repro-bench-v1`` result document.

    ``median`` and ``best`` are *per-operation* seconds (elapsed divided
    by the workload size): every cell repeats an identical unit of
    work, so per-op times from a ``--quick`` run read on the same scale
    as a full-size one.  ``samples`` keeps the raw total elapsed times
    alongside ``size``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    selected = names or list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
    results: Dict[str, Any] = {}
    for name in selected:
        fn, full_size, quick_size = BENCHMARKS[name]
        size = quick_size if quick else full_size
        samples = []
        meta: Dict[str, Any] = {}
        for _ in range(repeats):
            outcome = fn(size)
            samples.append(outcome["elapsed"])
            meta = outcome["meta"]
        results[name] = {
            "median": statistics.median(samples) / size,
            "best": min(samples) / size,
            "samples": samples,
            "size": size,
            "meta": meta,
        }
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "repeats": repeats,
        "benchmarks": results,
    }


def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro bench`` subcommand body (parsed by the caller)."""
    from .cli import _profiled

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Run the hot-path micro cells and print best and median "
            "per-op times; a cell's own assertions fail the run."
        ),
    )
    parser.add_argument(
        "names", nargs="*", help="cell names to run (default: all)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads for CI smoke runs",
    )
    parser.add_argument(
        "--repeats", type=positive(int), default=3, metavar="K",
        help="timing repeats per cell (default: 3)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile; writes repro-bench.prof to the "
        "working directory",
    )
    args = parser.parse_args(argv)

    unknown = [name for name in args.names if name not in BENCHMARKS]
    if unknown:
        print(f"unknown cells: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(BENCHMARKS)}", file=sys.stderr)
        return 2

    with _profiled(args.profile, "repro-bench.prof"):
        document = run_suite(
            quick=args.quick, repeats=args.repeats, names=args.names or None
        )

    for name, entry in document["benchmarks"].items():
        meta = entry["meta"]
        extras = "".join(
            f", {key}={meta[key]}"
            for key in ("dead_pops", "max_queue", "acl_bytes_per_entry")
            if key in meta
        )
        print(
            f"{name}: best {format_seconds(entry['best'])}/op "
            f"(median {format_seconds(entry['median'])}/op, "
            f"{args.repeats} run(s) of {entry['size']} ops{extras})"
        )
    return 0
