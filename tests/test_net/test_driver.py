"""The callback-driven live runtime: passes, links, and their bounds.

``LiveRuntime`` has no driver task and ``SocketTransport`` no per-link
task or queue: a pass is an event-loop callback entered from a socket's
``data_received``, from one ``call_soon`` and from one ``call_at``
timer.  These tests pin what that design promises:

* nothing on the per-message path creates an asyncio task;
* entry points hit from *inside* a pass are served by that pass, never
  recursively;
* sim timers fire at their wall-clock target and an idle node's clock
  keeps up with wall time;
* ``stop()`` neither hangs on nor leaks a link that is still connecting;
* one link class carries both directions, return routes included, a
  flush's fan-out travels as one sealed segment per endpoint, replayed
  segments are rejected, and a reconnect starts from empty dictionaries;
* of the codec pairings the backend once offered, only binary↔binary is
  left: asking for JSON is refused when a runtime is built, and a peer
  still speaking the retired JSON frame wire is refused at the frame
  layer without disturbing anyone else;
* a peer that stops reading costs bounded memory and nobody else's
  service;
* a protocol exception in a pass stops the runtime and surfaces from
  ``stop()`` without closing the connection that delivered the frame.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import socket
import warnings

import pytest

from repro.core.messages import Ping, Pong
from repro.net import tcp
from repro.net.codec import FrameReader, encode_frame, encode_message
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.net.session import SessionAuth
from repro.sim.node import Node

SECRET = b"driver-secret"
LOCAL = "127.0.0.1"


class Recorder(Node):
    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def handle_message(self, src, message):
        self.received.append((src, message))


class Responder(Node):
    """Answers every ping; ``padding`` makes the pong as big as asked."""

    def __init__(self, address, padding=0):
        super().__init__(address)
        self.sender = address + "!" * padding

    def handle_message(self, src, message):
        if isinstance(message, Ping):
            self.send(src, Pong(nonce=message.nonce, sender=self.sender))


class ClosedLoopPinger(Node):
    """Sends the next ping when the previous pong arrives, ``rounds`` times."""

    def __init__(self, address, target):
        super().__init__(address)
        self.target = target
        self.pongs = 0
        self.rounds = 0
        self.done = None

    def run(self, rounds):
        self.rounds = self.pongs + rounds
        self.done = asyncio.get_running_loop().create_future()
        self.send(self.target, Ping(nonce=self.pongs, sender=self.address))
        return self.done

    def handle_message(self, src, message):
        self.pongs += 1
        if self.pongs < self.rounds:
            self.send(self.target, Ping(nonce=self.pongs, sender=self.address))
        elif not self.done.done():
            self.done.set_result(self.pongs)


async def _pair(left_node, *right_nodes):
    """Two started runtimes that know each other; caller stops them."""
    left = LiveRuntime(SECRET, time_scale=10.0)
    right = LiveRuntime(SECRET, time_scale=10.0)
    left.register(left_node)
    for node in right_nodes:
        right.register(node)
    directory = {left_node.address: (LOCAL, await left.start())}
    right_port = await right.start()
    directory.update({node.address: (LOCAL, right_port) for node in right_nodes})
    left.set_peers(directory)
    right.set_peers(directory)
    return left, right


async def _until(condition, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


async def _call(runtime, fn, unwrap=True):
    """Run ``fn()`` inside a pass of ``runtime``; await what it returns."""
    box = asyncio.get_running_loop().create_future()
    runtime.call_soon(lambda: box.set_result(fn()))
    result = await box
    return await result if unwrap and asyncio.isfuture(result) else result


def _legacy_json_frame(message, src, dst):
    """One frame of the retired JSON wire: ``len || 'J' || seal(json)``."""
    return encode_frame(b"J" + SessionAuth(SECRET).seal(src, dst, encode_message(message)))


def _closed(sock):
    """True once the far end of non-blocking ``sock`` has closed it."""
    try:
        return sock.recv(1) == b""
    except BlockingIOError:
        return False


# -- (a) no task on the message path ------------------------------------------------


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_message_path_creates_no_tasks(codec):
    """1000 round trips on a warmed-up pair create no task.  With ``json``
    a peer still speaking the retired JSON frame wire sends a correctly
    sealed ``J`` frame mid-run: refusing it and closing its connection
    creates no task either."""

    async def scenario():
        loop = asyncio.get_running_loop()
        pinger = ClosedLoopPinger("alpha", "beta")
        left, right = await _pair(pinger, Responder("beta"))
        legacy = None
        try:
            if codec == "json":
                legacy = socket.create_connection((LOCAL, right.transport.port))
            # Warm up: connect, first round trips.
            await asyncio.wait_for(_call(left, lambda: pinger.run(10)), 5.0)
            await asyncio.sleep(0.05)  # let the connect and accept tasks retire
            created = []

            def counting_factory(loop, coro, **kwargs):
                task = asyncio.Task(coro, loop=loop, **kwargs)
                created.append(task)
                return task

            idle_tasks = asyncio.all_tasks() - {asyncio.current_task()}
            loop.set_task_factory(counting_factory)
            try:
                future = await _call(left, lambda: pinger.run(1000), unwrap=False)
                if legacy is not None:
                    legacy.sendall(_legacy_json_frame(Ping(nonce=0, sender="old"), "old", "beta"))
                    legacy.setblocking(False)
                    await _until(lambda: _closed(legacy))
                total = await asyncio.wait_for(future, 20.0)
            finally:
                loop.set_task_factory(None)
            return idle_tasks, created, total, right.transport.frames_rejected
        finally:
            await left.stop()
            await right.stop()
            if legacy is not None:
                legacy.close()

    idle_tasks, created, total, frames_rejected = asyncio.run(scenario())
    assert total == 1010
    assert idle_tasks == set(), f"tasks alive on a warmed-up pair: {idle_tasks}"
    assert created == [], f"1000 round trips created tasks: {created}"
    assert frames_rejected == (1 if codec == "json" else 0)


# -- (b) re-entrancy ---------------------------------------------------------------------


def test_entry_points_hit_inside_a_pass_are_served_by_it_without_recursion():
    async def scenario():
        runtime = LiveRuntime(SECRET, time_scale=10.0)
        order = []
        depth = {"now": 0, "max": 0}

        def step(label, then=None):
            def run(*_args):
                depth["now"] += 1
                depth["max"] = max(depth["max"], depth["now"])
                order.append(label)
                if then is not None:
                    then()
                    order.append(f"{label}-returned")
                depth["now"] -= 1

            return run

        class Chained(Node):
            def handle_message(self, src, message):
                if message.nonce == 1:
                    # From inside handle_message: loopback send, direct
                    # deliver, call_soon and an explicit wake.
                    step("first", lambda: (
                        self.send("alpha", Ping(nonce=2, sender="alpha")),
                        runtime.deliver("outside", "alpha", Ping(nonce=3, sender="x")),
                        runtime.call_soon(step("call-from-message")),
                        runtime.wake(),
                    ))()
                else:
                    step(f"message-{message.nonce}")()

        node = Chained("alpha")
        runtime.register(node)
        await runtime.start()
        try:
            runtime.call_soon(
                step("call", lambda: runtime.deliver("outside", "alpha", Ping(nonce=1, sender="x")))
            )
            # One trip through the ready queue: the single call_soon'ed pass.
            await asyncio.sleep(0)
            return order, depth["max"]
        finally:
            await runtime.stop()

    order, max_depth = asyncio.run(scenario())
    assert max_depth == 1
    # Each entry point returned before what it queued ran, and everything
    # ran in the one pass: messages join the inbox being drained, calls
    # wait for the pass's next iteration.
    assert order == [
        "call", "call-returned",
        "first", "first-returned",
        "message-2", "message-3", "call-from-message",
    ]


# -- (c) timers and the idle clock ----------------------------------------------------


@pytest.mark.parametrize("time_scale", [1.0, 50.0])
def test_sim_timer_fires_at_its_wall_clock_target_on_an_idle_node(time_scale):
    wall_delay = 0.2

    async def scenario():
        loop = asyncio.get_running_loop()
        runtime = LiveRuntime(SECRET, time_scale=time_scale)
        runtime.register(Recorder("alpha"))
        await runtime.start()
        stamps = {}

        def sleeper():
            stamps["start_wall"], stamps["start_sim"] = loop.time(), runtime.env.now
            yield runtime.env.timeout(wall_delay * time_scale)
            stamps["fired_wall"], stamps["fired_sim"] = loop.time(), runtime.env.now

        try:
            await asyncio.wait_for(runtime.run_process(sleeper()), 5.0)
            # An idle node's clock keeps tracking wall time, so settle() returns.
            idle_from_wall, idle_from_sim = loop.time(), runtime.env.now
            await asyncio.wait_for(runtime.wait_until(idle_from_sim + 0.15 * time_scale), 5.0)
            stamps["idle_wall"] = loop.time() - idle_from_wall
            return stamps
        finally:
            await runtime.stop()

    stamps = asyncio.run(scenario())
    assert stamps["fired_sim"] - stamps["start_sim"] == pytest.approx(wall_delay * time_scale)
    late = (stamps["fired_wall"] - stamps["start_wall"]) - wall_delay
    assert -0.002 <= late < 0.02, f"timer fired {late * 1e3:.1f} ms off its wall target"
    # 0.15 s of sim/scale, reached within the poll cap plus wait_until's own poll.
    assert 0.14 <= stamps["idle_wall"] < 0.15 + 0.05 + 0.03


# -- (d) stop() -----------------------------------------------------------------------------


def test_stop_with_unflushed_sends_and_a_connect_in_flight():
    async def scenario():
        # A bound port nobody listens on: every connect attempt is
        # refused, so the link sits in its retry loop.
        refusing = socket.socket()
        refusing.bind((LOCAL, 0))
        runtime = LiveRuntime(SECRET, time_scale=10.0)
        node = Recorder("alpha")
        runtime.register(node)
        await runtime.start()
        runtime.set_peers({"ghost": refusing.getsockname()})
        runtime.call_soon(lambda: node.send("ghost", Ping(nonce=1, sender="alpha")))
        await _until(lambda: runtime.transport._links)
        (link,) = runtime.transport._links.values()
        assert link._task is not None and link.backlog  # still connecting
        node.send("ghost", Ping(nonce=2, sender="alpha"))  # buffered, never flushed by a pass
        try:
            await asyncio.wait_for(runtime.stop(), 2.0)
        finally:
            refusing.close()
        return runtime.transport.messages_dropped, asyncio.all_tasks() - {asyncio.current_task()}

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dropped, leftover = asyncio.run(scenario())
        gc.collect()
    assert dropped == 2  # both parked behind the connect, counted not sent
    assert leftover == set()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == [], [str(w.message) for w in leaks]


# -- (e) one link class, both directions ------------------------------------------------


@pytest.mark.parametrize(
    "left_codec,right_codec,accept_binary,left_segments,right_segments",
    [
        ("json", "json", True, False, False),
        ("binary", "binary", True, True, True),
        ("binary", "json", True, True, False),
        ("json", "binary", True, False, True),
        ("binary", "binary", False, False, True),  # the old JSON-only server
    ],
)
def test_codec_pairings_interoperate(
    left_codec, right_codec, accept_binary, left_segments, right_segments
):
    """Of the pairings the two-wire backend offered, binary with binary
    accepted is the one left, and it carries segments both ways.  Asking
    for JSON on either side, or for a server that refuses binary, is
    refused when the runtime is built: nothing downgrades any more."""
    if not accept_binary:
        with pytest.raises(TypeError, match="accept_binary"):
            LiveRuntime(SECRET, codec=right_codec, accept_binary=accept_binary)
    elif "json" in (left_codec, right_codec):
        with pytest.raises(ValueError, match="the live wire is binary"):
            LiveRuntime(SECRET, codec=left_codec), LiveRuntime(SECRET, codec=right_codec)
    else:

        async def scenario():
            pinger = ClosedLoopPinger("alpha", "beta")
            left, right = await _pair(pinger, Responder("beta"))
            try:
                total = await asyncio.wait_for(_call(left, lambda: pinger.run(20)), 5.0)
                return total, left.transport, right.transport
            finally:
                await left.stop()
                await right.stop()

        total, left, right = asyncio.run(scenario())
        assert total == 20
        assert left.messages_dropped == right.messages_dropped == 0
        assert left.frames_rejected == right.frames_rejected == 0
        assert (left.wire["segment_msgs_sent"] == 20) == left_segments
        assert (right.wire["segment_msgs_sent"] == 20) == right_segments
        for transport in (left, right):
            assert transport.wire["frames_sent"] == transport.wire["segments_sent"] > 0


def test_fanout_coalesces_into_segments():
    async def scenario():
        pinger = Recorder("alpha")
        left, right = await _pair(pinger, *(Responder(f"beta{i}") for i in range(4)))

        def burst():
            for round_no in range(10):
                for i in range(4):
                    pinger.send(f"beta{i}", Ping(nonce=round_no * 4 + i, sender="alpha"))

        left.call_soon(burst)
        try:
            await _until(lambda: len(pinger.received) >= 40)
            return left.transport.wire_stats(), right.transport.wire_stats()
        finally:
            await left.stop()
            await right.stop()

    left_wire, right_wire = asyncio.run(scenario())
    # The 40-ping fan-out left alpha as segments, not 40 frames:
    # coalescing packed a whole flush per endpoint per write.
    assert 0 < left_wire["segments_sent"] < 40
    assert left_wire["segment_msgs_sent"] == 40
    assert left_wire["msgs_per_segment"] > 1.0
    # And the replies came back as segments from the other side.
    assert right_wire["segment_msgs_sent"] == 40
    assert left_wire["segments_received"] == right_wire["segments_sent"]


def test_replayed_segment_is_rejected_by_its_nonce():
    async def scenario():
        pinger = Recorder("alpha")
        left, right = await _pair(pinger, Responder("beta"))
        left.call_soon(lambda: pinger.send("beta", Ping(nonce=1, sender="alpha")))
        try:
            await _until(lambda: pinger.received)
            before = dict(right.transport.auth.rejected)
            delivered = right.transport.messages_delivered
            # A fresh SessionAuth restarts nonces at 1 — which the server
            # has already seen from "alpha" — so this is a replay by
            # construction.
            body = BinaryEncoder().encode(Ping(nonce=2, sender="alpha"))
            stale = SessionAuth(SECRET).seal_segment(
                "alpha", "anything", [("alpha", "beta", body)]
            )
            reader, writer = await asyncio.open_connection(LOCAL, right.transport.port)
            writer.write(encode_frame(b"B" + stale))
            await writer.drain()
            closed = await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            after = dict(right.transport.auth.rejected)
            return before, after, right.transport.messages_delivered - delivered, closed
        finally:
            await left.stop()
            await right.stop()

    before, after, newly_delivered, closed = asyncio.run(scenario())
    assert after["replayed"] == before["replayed"] + 1
    assert newly_delivered == 0
    assert closed


@pytest.mark.parametrize("client_codec", ["json", "binary"])
@pytest.mark.parametrize("server_codec", ["json", "binary"])
def test_transient_client_is_answered_down_its_own_connection(client_codec, server_codec):
    """A client the server never learned is answered over the connection
    it came in on.  A server can no longer be asked for JSON; a client
    still speaking the retired JSON frame wire is refused and its
    connection closed, so it is never answered and leaves no route."""
    if server_codec == "json":
        with pytest.raises(ValueError, match="the live wire is binary"):
            LiveRuntime(SECRET, codec=server_codec)
        return

    async def scenario():
        server = LiveRuntime(SECRET, time_scale=10.0, codec=server_codec)
        server.register(Responder("beta"))
        port = await server.start()
        try:
            if client_codec == "json":
                reader, writer = await asyncio.open_connection(LOCAL, port)
                writer.write(_legacy_json_frame(Ping(nonce=0, sender="visitor"), "visitor", "beta"))
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                return answer, None, server.transport
            client = LiveRuntime(SECRET, time_scale=10.0, codec=client_codec)
            pinger = ClosedLoopPinger("visitor", "beta")
            client.register(pinger)
            await client.start()
            client.set_peers({"beta": (LOCAL, port)})  # the server never learns "visitor"
            try:
                total = await asyncio.wait_for(_call(client, lambda: pinger.run(20)), 5.0)
                return total, client.transport.wire, server.transport
            finally:
                await client.stop()
        finally:
            await server.stop()

    outcome, client_wire, server = asyncio.run(scenario())
    assert server._links == {}  # nothing ever dialled out to "visitor"
    if client_codec == "json":
        assert outcome == b""  # closed without an answer
        assert server.frames_rejected == 1
        assert server.messages_delivered == 0
        assert server.wire["segments_sent"] == 0
        return
    assert outcome == 20
    assert server.messages_dropped == server.frames_rejected == 0
    assert server.wire["segment_msgs_sent"] == client_wire["segment_msgs_received"] == 20


def test_reconnect_restarts_dictionaries():
    async def scenario():
        pinger = ClosedLoopPinger("alpha", "beta")
        left, right = await _pair(pinger, Responder("beta"))
        try:
            await asyncio.wait_for(_call(left, lambda: pinger.run(5)), 5.0)
            (link,) = left.transport._links.values()
            old_encoder = link.encoder
            # Cut alpha's connection from the far side, mid-session.
            for accepted in list(right.transport._accepted):
                accepted.sock.abort()
            await _until(lambda: not right.transport._accepted)
            await asyncio.sleep(0.02)
            total = await asyncio.wait_for(_call(left, lambda: pinger.run(5)), 5.0)
            fresh = link.encoder is not old_encoder
            return total, fresh, len(right.transport._accepted), left.transport, right.transport
        finally:
            await left.stop()
            await right.stop()

    total, fresh, accepted, left, right = asyncio.run(scenario())
    assert total == 10
    assert fresh and accepted == 1  # one new connection, one new encoder
    # Stale STR_REFs against the server's fresh decoder would be codec rejections.
    assert left.frames_rejected == right.frames_rejected == 0
    assert sum(left.auth.rejected.values()) == sum(right.auth.rejected.values()) == 0
    assert left.messages_dropped == right.messages_dropped == 0


# -- back-pressure ----------------------------------------------------------------------------


def test_peer_that_stops_reading_costs_bounded_memory(monkeypatch):
    limit = 8
    pong_bytes = 16_000
    monkeypatch.setattr(tcp, "_LINK_QUEUE_LIMIT", limit)

    async def scenario():
        server = LiveRuntime(SECRET)
        server.register(Responder("beta", padding=pong_bytes))
        port = await server.start()
        transport = server.transport
        label = f"{LOCAL}:{port}"

        # A raw peer: sealed segments from its own encoder, and never a read.
        auth, encoder = SessionAuth(SECRET), BinaryEncoder()
        stuck = socket.socket()
        stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stuck.connect((LOCAL, port))
        stuck.setblocking(False)

        innocent = LiveRuntime(SECRET)
        pinger = ClosedLoopPinger("gamma", "beta")
        innocent.register(pinger)
        await innocent.start()
        innocent.set_peers({"beta": (LOCAL, port)})
        try:
            worst_backlog = worst_buffer = 0
            for nonce in range(20_000):
                body = encoder.encode(Ping(nonce=nonce, sender="stuck"))
                stuck.sendall(
                    encode_frame(b"B" + auth.seal_segment("stuck", label, [("stuck", "beta", body)]))
                )
                await asyncio.sleep(0)  # one ping per server pass
                link = transport._routes.get("stuck")
                if link is not None:
                    worst_backlog = max(worst_backlog, len(link.backlog))
                    worst_buffer = max(worst_buffer, link.sock.get_write_buffer_size())
                if transport.messages_dropped >= 50:
                    break
            # The runtime still serves a peer that does read.
            served = await asyncio.wait_for(_call(innocent, lambda: pinger.run(20)), 5.0)
            return transport.messages_dropped, worst_backlog, worst_buffer, served, nonce
        finally:
            stuck.close()
            await innocent.stop()
            await server.stop()

    dropped, worst_backlog, worst_buffer, served, sent = asyncio.run(scenario())
    assert dropped >= 50, f"no drops after {sent} requests"
    assert worst_backlog <= limit
    # asyncio's default high-water mark plus the one frame that crossed it.
    assert worst_buffer <= 64 * 1024 + 2 * pong_bytes
    assert served == 20


# -- the failure contract of a pass ---------------------------------------------------------


def test_protocol_exception_stops_the_runtime_and_surfaces_from_stop(caplog):
    class Fragile(Recorder):
        def handle_message(self, src, message):
            if message.nonce == 13:
                raise RuntimeError("protocol bug on nonce 13")
            super().handle_message(src, message)

    async def scenario():
        sender, fragile = Recorder("alpha"), Fragile("beta")
        left, right = await _pair(sender, fragile)
        try:
            left.call_soon(lambda: sender.send("beta", Ping(nonce=1, sender="alpha")))
            await _until(lambda: len(fragile.received) == 1)
            left.call_soon(lambda: sender.send("beta", Ping(nonce=13, sender="alpha")))
            await _until(lambda: right._failure is not None)
            frozen_at = right.env.now
            left.call_soon(lambda: sender.send("beta", Ping(nonce=2, sender="alpha")))
            await asyncio.sleep(0.15)
            facts = {
                "advanced": right.env.now - frozen_at,
                "received": len(fragile.received),
                "pumping": right._pumping,
                # The connection that carried the frame is still up, both ends.
                "accepted": len(right.transport._accepted),
                "sender_connected": all(
                    link.sock is not None and not link.sock.is_closing()
                    for link in left.transport._links.values()
                ),
            }
            with pytest.raises(RuntimeError, match="protocol bug on nonce 13"):
                await right.stop()
            return facts
        finally:
            await left.stop()

    with caplog.at_level(logging.WARNING, logger="asyncio"):
        facts = asyncio.run(scenario())
    assert facts == {
        "advanced": 0.0,
        "received": 1,
        "pumping": False,
        "accepted": 1,
        "sender_connected": True,
    }
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_segment_frames_on_the_wire_keep_their_layout():
    """What a link writes is ``len || 'B' || seal_segment(...)`` from its first byte."""

    async def scenario():
        seen = bytearray()
        got_one = asyncio.Event()

        async def capture(reader, writer):
            try:
                while chunk := await reader.read(65536):
                    seen.extend(chunk)
                    got_one.set()
            finally:
                writer.close()

        sink = await asyncio.start_server(capture, LOCAL, 0)
        runtime = LiveRuntime(SECRET, time_scale=10.0)
        node = Recorder("alpha")
        runtime.register(node)
        await runtime.start()
        sink_port = sink.sockets[0].getsockname()[1]
        runtime.set_peers({"beta": (LOCAL, sink_port)})
        runtime.call_soon(lambda: node.send("beta", Ping(nonce=5, sender="alpha")))
        try:
            await asyncio.wait_for(got_one.wait(), 5.0)
        finally:
            await runtime.stop()
            sink.close()
            await sink.wait_closed()
        return bytes(seen), sink_port

    raw, sink_port = asyncio.run(scenario())
    (body,) = FrameReader().feed(raw)
    assert body[:1] == b"B"
    sender, recipient, items = SessionAuth(SECRET).open_segment(body[1:])
    assert (sender, recipient) == ("alpha", f"{LOCAL}:{sink_port}")
    ((src, dst, blob),) = items
    assert (src, dst) == ("alpha", "beta")
    assert BinaryDecoder().decode(blob) == Ping(nonce=5, sender="alpha")
