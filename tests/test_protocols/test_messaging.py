"""Tests for the shared request/reply and retry messaging substrate.

Imported through :mod:`repro.net.transport` — the backend-agnostic
entry point — so these contracts are pinned where both the sim and the
socket transports see them.
"""

from __future__ import annotations

from repro.net.transport import ReplyTable, request, retry_until_acked
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Node
from repro.sim.trace import Tracer


class Echo(Node):
    """Replies to every message with (request_id, payload) after a beat."""

    def __init__(self, address="echo", reply=True):
        super().__init__(address)
        self.reply = reply
        self.seen = []

    def handle_message(self, src, message):
        self.seen.append(message)
        if self.reply:
            self.send(src, message)


class Caller(Node):
    def __init__(self, address="caller"):
        super().__init__(address)
        self.table = ReplyTable()
        self.replies = []

    def handle_message(self, src, message):
        request_id, _payload = message
        self.table.dispatch(request_id, message)


def build(reply=True):
    env = Environment()
    network = Network(env, latency=FixedLatency(0.01), tracer=Tracer(env))
    echo = Echo(reply=reply)
    caller = Caller()
    network.register(echo)
    network.register(caller)
    return env, echo, caller


class TestReplyTable:
    def test_ids_are_fresh_and_monotonic(self):
        table = ReplyTable()
        a = table.allocate(lambda reply: None)
        b = table.allocate(lambda reply: None)
        assert b == a + 1
        assert a in table and b in table

    def test_dispatch_routes_once(self):
        table = ReplyTable()
        got = []
        rid = table.allocate(got.append)
        assert table.dispatch(rid, "x") is True
        assert table.dispatch(rid, "y") is False  # consumed
        assert got == ["x"]

    def test_discard_drops_late_replies(self):
        table = ReplyTable()
        got = []
        rid = table.allocate(got.append)
        table.discard(rid)
        assert table.dispatch(rid, "late") is False
        assert not got and len(table._pending) == 0

    def test_clear_and_truthiness(self):
        table = ReplyTable()
        table.allocate(lambda reply: None)
        assert len(table._pending) == 1
        table.clear()
        assert not table._pending

    def test_separate_tables_have_separate_counters(self):
        queries, lookups = ReplyTable(), ReplyTable()
        assert queries.allocate(lambda r: None) == 1
        assert lookups.allocate(lambda r: None) == 1


class TestRequest:
    def test_reply_returned(self):
        env, echo, caller = build(reply=True)
        proc = env.process(
            request(caller, caller.table, "echo",
                    lambda rid: (rid, "hello"), timeout=1.0)
        )
        env.run(until=5.0)
        assert proc.value == (1, "hello")
        assert len(caller.table._pending) == 0  # cleaned up

    def test_timeout_returns_none(self):
        env, echo, caller = build(reply=False)
        proc = env.process(
            request(caller, caller.table, "echo",
                    lambda rid: (rid, "hello"), timeout=1.0)
        )
        env.run(until=5.0)
        assert proc.value is None
        assert len(caller.table._pending) == 0  # table cleaned even on timeout

    def test_on_sent_hook_fires(self):
        env, echo, caller = build(reply=True)
        sent = []
        env.process(
            request(caller, caller.table, "echo",
                    lambda rid: (rid, "x"), timeout=1.0,
                    on_sent=lambda: sent.append(env.now))
        )
        env.run(until=5.0)
        assert sent == [0.0]


class TestRetryUntilAcked:
    def test_stops_on_ack(self):
        env, echo, caller = build(reply=False)
        acked = env.event()

        def ack_later():
            yield env.timeout(0.25)
            acked.succeed()

        env.process(ack_later())
        env.process(
            retry_until_acked(caller, "echo", "notify", 0.1, acked)
        )
        env.run(until=5.0)
        # 0.0, 0.1, 0.2 sends; acked at 0.25 ends the loop.
        assert len(echo.seen) == 3

    def test_deadline_bounds_retries(self):
        env, echo, caller = build(reply=False)
        acked = env.event()  # never fires
        env.process(
            retry_until_acked(
                caller, "echo", "notify", 0.1, acked, deadline=0.35
            )
        )
        env.run(until=5.0)
        assert len(echo.seen) == 4  # sends at 0.0, 0.1, 0.2, 0.3

    def test_crashed_sender_keeps_pacing_without_sending(self):
        env, echo, caller = build(reply=False)
        acked = env.event()
        caller.crash()
        env.process(
            retry_until_acked(
                caller, "echo", "notify", 0.1, acked, deadline=0.3
            )
        )
        env.run(until=5.0)
        assert echo.seen == []
