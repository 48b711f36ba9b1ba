"""Negative-path session auth: every hostile frame is rejected, counted,
traced — and the server loop keeps serving.

Unit layer: :class:`~repro.net.session.SessionAuth` rejection kinds
(tampered / replayed / expired / malformed) with injected clocks, and
the no-burn rule — a tampered copy must not consume the legitimate
frame's nonce.

Live layer: a real asyncio server fed tampered, replayed, expired,
malformed, truncated, and oversized segments over raw TCP connections,
then a valid segment that must still be delivered.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct

import pytest

from repro.auth.identity import SignedMessage
from repro.auth.signatures import Tag
from repro.core.messages import AclUpdate, Ping, QueryResponse, RevokeNotify, UpdateMsg, Verdict
from repro.core.policy import AccessPolicy
from repro.core.rights import Right, Version
from repro.net.cell import LiveCell
from repro.net.codec import MAX_FRAME, encode_frame, encode_message
from repro.net import session
from repro.net.codec_bin import BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.net.session import MAC_BYTES, AuthError, SessionAuth
from repro.sim.node import Node
from repro.sim.trace import TraceKind

SECRET = b"negative-path-secret"


def _seal(auth: SessionAuth, message, src="probe", dst="alpha", encoder=None) -> bytes:
    """``message`` sealed as a one-item segment.

    ``encoder`` defaults to a fresh one, which matches the fresh decoder
    of a new connection; several segments on one connection share one.
    """
    body = (encoder or BinaryEncoder()).encode(message)
    return auth.seal_segment(src, "server", [(src, dst, body)])


def _bframe(blob: bytes) -> bytes:
    """A wire frame carrying one sealed segment."""
    return encode_frame(b"B" + blob)


class Recorder(Node):
    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def handle_message(self, src, message):
        self.received.append((src, message))


def _expect(auth: SessionAuth, kind: str, blob: bytes) -> None:
    before = auth.rejected[kind]
    with pytest.raises(AuthError) as excinfo:
        auth.open(blob)
    assert excinfo.value.kind == kind
    assert auth.rejected[kind] == before + 1


class TestSessionAuthUnit:
    def test_round_trip(self):
        auth = SessionAuth(SECRET)
        sender, recipient, payload = auth.open(auth.seal("a", "b", b"payload"))
        assert (sender, recipient, payload) == ("a", "b", b"payload")

    def test_tampered_mac_rejected_and_nonce_not_burned(self):
        auth = SessionAuth(SECRET)
        blob = auth.seal("a", "b", b"payload")
        tampered = bytes([blob[0] ^ 0xFF]) + blob[1:]
        _expect(auth, "tampered", tampered)
        # The untouched original still opens: rejection must not have
        # advanced the replay window.
        assert auth.open(blob)[2] == b"payload"

    def test_tampered_envelope_rejected(self):
        auth = SessionAuth(SECRET)
        blob = bytearray(auth.seal("a", "b", b"payload"))
        blob[MAC_BYTES + 4] ^= 0x01
        _expect(auth, "tampered", bytes(blob))

    def test_replayed_frame_rejected(self):
        auth = SessionAuth(SECRET)
        blob = auth.seal("a", "b", b"payload")
        auth.open(blob)
        _expect(auth, "replayed", blob)

    def test_stale_nonce_rejected(self):
        auth = SessionAuth(SECRET)
        first = auth.seal("a", "b", b"one")
        second = auth.seal("a", "b", b"two")
        auth.open(second)
        _expect(auth, "replayed", first)

    def test_expired_frame_rejected_both_directions(self):
        past = SessionAuth(SECRET, clock=lambda: 0.0)
        future = SessionAuth(SECRET, clock=lambda: 10_000.0)
        receiver = SessionAuth(SECRET, lifetime=30.0, clock=lambda: 5_000.0)
        _expect(receiver, "expired", past.seal("a", "b", b"stale"))
        _expect(receiver, "expired", future.seal("a", "b", b"predated"))

    def test_malformed_frames_rejected(self):
        auth = SessionAuth(SECRET)
        _expect(auth, "malformed", b"short")
        # A correctly MACed envelope that is not JSON.
        import hashlib
        import hmac as hmac_mod

        body = b"not json at all"
        mac = hmac_mod.new(SECRET, body, hashlib.sha256).digest()
        _expect(auth, "malformed", mac + body)
        # A correctly MACed envelope with a boolean nonce.
        envelope = (
            b'{"d":"b","n":true,"p":"x","s":"a","t":0}'
        )
        mac = hmac_mod.new(SECRET, envelope, hashlib.sha256).digest()
        _expect(auth, "malformed", mac + envelope)

    def test_empty_secret_rejected(self):
        with pytest.raises(ValueError):
            SessionAuth(b"")

    def test_segment_mac_is_compared_in_constant_time_once(self, monkeypatch):
        calls = []
        compare = session.hmac.compare_digest

        def recording_compare(a, b):
            calls.append((bytes(a), bytes(b)))
            return compare(a, b)

        monkeypatch.setattr(session.hmac, "compare_digest", recording_compare)
        sender, receiver = SessionAuth(SECRET), SessionAuth(SECRET)
        valid = sender.seal_segment("a", "b", [("a", "b", b"body")])
        receiver.open_segment(valid)
        assert len(calls) == 1
        tampered = bytearray(sender.seal_segment("a", "b", [("a", "b", b"body")]))
        tampered[-1] ^= 0x01
        with pytest.raises(AuthError) as excinfo:
            receiver.open_segment(bytes(tampered))
        assert excinfo.value.kind == "tampered"
        assert receiver.rejected["tampered"] == 1
        assert len(calls) == 2


class TestLiveServerSurvival:
    def test_hostile_frames_dropped_without_killing_the_loop(self):
        async def scenario():
            runtime = LiveRuntime(SECRET, time_scale=10.0, keep_log=True)
            node = Recorder("alpha")
            runtime.register(node)
            port = await runtime.start()
            transport = runtime.transport

            async def fire(*frames: bytes) -> None:
                """One connection per call: every rejection closes a stream."""
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                for frame in frames:
                    writer.write(frame)
                await writer.drain()
                await asyncio.sleep(0.05)
                writer.close()

            try:
                client = SessionAuth(SECRET)
                ping = Ping(nonce=1, sender="probe")

                # Tampered: flip one mac byte of an otherwise valid segment.
                blob = _seal(client, ping)
                await fire(_bframe(bytes([blob[0] ^ 0xFF]) + blob[1:]))

                # Replayed: the same sealed segment twice (first is valid).
                blob = _seal(client, ping)
                await fire(_bframe(blob), _bframe(blob))

                # Expired: sealed by a clock a week in the past.
                stale = SessionAuth(SECRET, clock=lambda: 0.0)
                await fire(_bframe(_seal(stale, ping, src="late")))

                # Malformed: too short to carry a mac and a segment.
                await fire(_bframe(b"short"))

                # Truncated: a zero-length frame declaration.
                await fire(struct.pack(">I", 0) + b"junk")

                # Oversized: a length prefix beyond MAX_FRAME.
                await fire(struct.pack(">I", MAX_FRAME + 1))

                # Unknown frame kind: rejected, connection closed.
                await fire(encode_frame(b"Z" + _seal(client, ping)))

                # The loop must still be serving: a fresh valid segment lands.
                await fire(_bframe(_seal(client, ping)))
                for _ in range(300):
                    if len(node.received) >= 2:
                        break
                    await asyncio.sleep(0.01)

                return (
                    list(node.received),
                    dict(transport.auth.rejected),
                    transport.frames_rejected,
                    runtime.tracer.counts().get(TraceKind.MSG_DROPPED, 0),
                )
            finally:
                await runtime.stop()

        received, rejected, frames_rejected, dropped = asyncio.run(scenario())
        # The replay's first copy and the final segment both arrived.
        assert received == [("probe", Ping(nonce=1, sender="probe"))] * 2
        assert rejected["tampered"] == 1
        assert rejected["replayed"] == 1
        assert rejected["expired"] == 1
        assert rejected["malformed"] == 1
        # Four auth rejections, two framing errors and the unknown kind,
        # all counted and traced.
        assert frames_rejected == 7
        assert dropped >= 7

    def test_retired_frame_kinds_reach_no_node_and_close_the_connection(self):
        """A correctly sealed per-message JSON frame and a codec hello are
        no longer part of the wire: each is rejected as a frame error."""

        async def scenario():
            runtime = LiveRuntime(SECRET, time_scale=10.0)
            node = Recorder("alpha")
            runtime.register(node)
            port = await runtime.start()
            client = SessionAuth(SECRET)
            ping = encode_message(Ping(nonce=1, sender="probe"))
            hello = b'{"codec":"binary","v":1}'
            closed = []
            try:
                for frame in (
                    encode_frame(b"J" + client.seal("probe", "alpha", ping)),
                    encode_frame(b"H" + client.seal("probe", f"127.0.0.1:{port}", hello)),
                ):
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                    writer.write(frame)
                    await writer.drain()
                    closed.append(await asyncio.wait_for(reader.read(), 5.0) == b"")
                    writer.close()
                return list(node.received), runtime.transport.frames_rejected, closed
            finally:
                await runtime.stop()

        received, frames_rejected, closed = asyncio.run(scenario())
        assert received == []
        assert frames_rejected == 2
        assert closed == [True, True]


class TestForgedTaggedAnswerOverTheWire:
    """A cell member (it holds the session secret, so its frames open) that
    is not the manager it claims to be: its tagged answers die at the host."""

    def test_forged_tags_rejected_and_the_cell_keeps_answering(self):
        async def scenario():
            cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=2),
                            secret=SECRET, time_scale=20.0)
            cell.seed_grant("app", "alice")
            cell.seed_grant("app", "bob")
            async with cell:
                host = cell.hosts[0]
                assert (await cell.check(0, "app", "alice")).allowed
                key_id = host._answer_keys["m0"][1]  # public: it is on the wire
                reached_combiner = []
                query_id = await cell.call(
                    "h0", lambda: host._pending_queries.allocate(reached_combiner.append)
                )
                answer = QueryResponse(query_id, "app", "mallory", Right.USE, Verdict.GRANT,
                                       100.0, Version(9, ""), "m0")
                adversary, encoder = SessionAuth(SECRET), BinaryEncoder()
                _, writer = await asyncio.open_connection(*cell.directory["h0"])
                for value in (1, 2**127, -1):
                    forged = SignedMessage(answer, Tag("m0", key_id, value))
                    writer.write(_bframe(_seal(adversary, forged, "x9", "h0", encoder)))
                await writer.drain()
                for _ in range(300):
                    if host.rejected_manager_signatures >= 3:
                        break
                    await asyncio.sleep(0.01)
                still_pending = query_id in host._pending_queries
                # The same connection still carries traffic: a late answer is counted.
                late = SignedMessage(
                    dataclasses.replace(answer, query_id=1), Tag("m0", key_id, 5)
                )
                before = host.late_manager_responses
                writer.write(_bframe(_seal(adversary, late, "x9", "h0", encoder)))
                await writer.drain()
                for _ in range(300):
                    if host.late_manager_responses > before:
                        break
                    await asyncio.sleep(0.01)
                late_counted = host.late_manager_responses - before
                writer.close()
                decision = await cell.check(0, "app", "bob")
                denied = await cell.check(0, "app", "mallory")
                return (host.rejected_manager_signatures, reached_combiner, still_pending,
                        late_counted, decision.allowed, denied.allowed)

        rejected, reached, pending, late, bob_allowed, mallory_allowed = asyncio.run(scenario())
        assert rejected == 3 and reached == [] and pending
        assert late == 1
        assert bob_allowed and not mallory_allowed


class TestMalformedPeerUpdateOverTheWire:
    """A cell member forges a peer update whose counter no ACL column can
    hold: the manager drops it, counts it and keeps answering queries."""

    def test_out_of_range_counter_dropped_and_the_manager_keeps_answering(self):
        async def scenario():
            # C = M: every check needs m0's answer.
            cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=3),
                            secret=SECRET, time_scale=20.0)
            cell.seed_grant("app", "alice")
            async with cell:
                manager = cell.managers[0]
                forged = UpdateMsg(AclUpdate("x9:1", "app", "mallory", Right.USE, True,
                                             Version(2**63, "x9"), "x9"))
                _, writer = await asyncio.open_connection(*cell.directory["m0"])
                writer.write(_bframe(_seal(SessionAuth(SECRET), forged, "x9", "m0")))
                await writer.drain()
                # A runtime whose pass raised re-raises here.
                await asyncio.wait_for(cell.settle(1.0), 10.0)
                writer.close()
                decision = await asyncio.wait_for(cell.check(0, "app", "alice"), 10.0)
                denied = await asyncio.wait_for(cell.check(0, "app", "mallory"), 10.0)
                return (manager.rejected_entries, manager._counter, manager.stats["queries"],
                        decision.allowed, denied.allowed)

        rejected, counter, queries, alice_allowed, mallory_allowed = asyncio.run(scenario())
        assert rejected == 1 and counter < 2**63
        assert queries >= 2
        assert alice_allowed and not mallory_allowed


class TestForgedPeerOverTheWire:
    """The simulator's source check trusts ``src``; over sockets ``src`` is
    a name inside a frame sealed under the one cell secret, so any holder
    of the secret can claim to be a manager (ROADMAP 19)."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 19")
    def test_a_secret_holder_claiming_a_manager_cannot_outvote_its_revocation(self):
        async def scenario():
            cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=2),
                            secret=SECRET, time_scale=20.0)
            cell.seed_grant("app", "u")
            async with cell:
                m0 = cell.managers[0]
                forged = UpdateMsg(AclUpdate("x9:1", "app", "u", Right.USE, True,
                                             Version(2**62, "m1"), "m1"))
                _, writer = await asyncio.open_connection(*cell.directory["m0"])
                writer.write(_bframe(_seal(SessionAuth(SECRET), forged, "m1", "m0")))
                await writer.drain()
                await asyncio.wait_for(cell.settle(1.0), 10.0)
                writer.close()
                await asyncio.wait_for(cell.issue("m1", "app", "u", grant=False), 10.0)
                await asyncio.wait_for(cell.settle(5.0), 10.0)
                return await cell.call("m0", lambda: m0.acl("app").check("u", Right.USE))

        assert not asyncio.run(scenario())


class TestStrayKindsOverTheWire:
    """A cell member sends a kind the target's role does not accept: the
    target drops and counts it, and its runtime keeps serving."""

    def test_stray_ping_to_a_host_and_revoke_notify_to_a_manager(self):
        async def scenario():
            cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=2),
                            secret=SECRET, time_scale=20.0)
            cell.seed_grant("app", "alice")
            await cell.start()
            try:
                host, manager = cell.hosts[0], cell.managers[0]
                stray = RevokeNotify("app", "alice", Right.USE, Version(2, "m1"), notify_id=1)
                for dst, message in (("h0", Ping(1, "m1")), ("m0", stray)):
                    _, writer = await asyncio.open_connection(*cell.directory[dst])
                    writer.write(_bframe(_seal(SessionAuth(SECRET), message, "m1", dst)))
                    await writer.drain()
                    writer.close()
                for _ in range(300):
                    if host.rejected_kinds and manager.rejected_kinds:
                        break
                    await asyncio.sleep(0.01)
                running = [
                    cell.runtimes[addr]._running and cell.runtimes[addr]._failure is None
                    for addr in ("h0", "m0")
                ]
                decision = await asyncio.wait_for(cell.check(0, "app", "alice"), 10.0)
                return running, decision.allowed, host.rejected_kinds, manager.rejected_kinds
            finally:
                await cell.stop()  # a runtime whose pass raised re-raises here

        running, allowed, host_rejected, manager_rejected = asyncio.run(scenario())
        assert running == [True, True]
        assert allowed
        assert host_rejected == 1 and manager_rejected == 1
