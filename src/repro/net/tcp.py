""":class:`SocketTransport` — the transport interface over asyncio TCP.

Wire format: every frame is ``4-byte BE length || kind byte || body``,
where the kind byte selects one of four frame flavours:

``J``
    a JSON session frame — ``HMAC || envelope(JSON)`` exactly as in
    PR 7 (see :mod:`repro.net.session`); the compatibility floor every
    endpoint speaks.
``H`` / ``A``
    codec negotiation — a sealed hello naming the codec the client
    wants for this connection, and the sealed accept/reject ack.  An
    unknown or unaccepted codec name is a *structured* rejection
    (counted under the session's ``negotiation`` counter, answered
    with a reject ack): the connection stays a perfectly good JSON
    connection; nothing is poisoned.
``B``
    a binary segment — ``HMAC || segment`` carrying a whole flush's
    worth of messages for one endpoint: one length prefix, one replay
    nonce, and one MAC amortised over the batch, each message body
    encoded by the connection's :class:`~repro.net.codec_bin.BinaryEncoder`.

Topology: every long-lived cell node runs a frame server; for each
known peer *endpoint* a lazily-connected outbound :class:`_Link`
carries this endpoint's batches.  Links are full-duplex — replies may
come back on the same connection — and inbound connections from
addresses *not* in the peer directory (e.g. transient ``repro load``
clients, which run no server) are remembered as *return routes* so
responses to them travel back over the connection they arrived on.
One link class serves both directions and both codecs, and it is the
connection's :class:`asyncio.Protocol`: no task, future or queue sits
on the per-message path.  Inbound, the selector's read callback runs
``data_received`` → :meth:`FrameReader.feed` → MAC check → decode →
``runtime.deliver`` and then the runtime's pass, all in that one
callback; outbound, :meth:`SocketTransport.flush` — called once per
pass, so latency never regresses past the pass that produced the
messages — hands each link its batch, which a ready link encodes,
seals and writes inline.  Only connecting and the hello/ack
handshake run as a (short-lived) task.  A peer that stops reading
makes asyncio call ``pause_writing``; from then on batches park in the
link's bounded backlog and overflow is dropped and counted, in either
direction.

Codec state is scoped to one TCP connection per direction: the
interning dictionaries of a :class:`BinaryEncoder`/``BinaryDecoder``
pair stay consistent because TCP delivers that connection's frames in
order, and any divergence (a :class:`DictionaryError`, which can only
mean a bug or an attack) closes the connection so the automatic
reconnect resets both sides.  A binary link packs a batch into one
segment; a JSON link (the transport prefers JSON, or the server
declined binary) writes one ``J`` frame per message.

Failure semantics mirror the sim :class:`~repro.sim.network.Network`:
``send`` is synchronous fire-and-forget; connection failures, unknown
destinations, crashed endpoints, authentication failures, and scripted
partitions all silently drop the frame (counted and traced, never
raised into protocol code).  Reliability is the protocol's own
retry/ack machinery, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..sim.trace import TraceKind
from .codec import CodecError, FrameError, FrameReader, decode_message, encode_frame, encode_message
from .codec_bin import BinaryDecoder, BinaryEncoder, decode_bin, encode_bin
from .session import DEFAULT_LIFETIME, AuthError, SessionAuth
from .transport import Address, Transport

__all__ = ["SocketTransport", "LiveConnectivity", "CODECS"]

#: Bound on batches parked on one link (connecting, negotiating, or the
#: peer not reading) before further batches drop.
_LINK_QUEUE_LIMIT = 4096

#: Codec names a transport can negotiate.  ``json`` is the floor and is
#: always accepted; ``binary`` is accepted unless ``accept_binary`` is
#: off.  Anything else in a hello is a structured negotiation rejection.
CODECS = ("json", "binary")

#: Pending sends per transport that force an early flush mid-pass, so a
#: pathological burst inside one runtime pass cannot buffer
#: unboundedly before hitting the wire.
_FLUSH_LIMIT = 128

#: Wall-clock bound on a codec handshake before the link downgrades to
#: JSON (covers pre-kind-byte servers that never answer a hello).
_HELLO_TIMEOUT = 5.0

#: One flush's worth of ``(src, dst, message)`` for one link.
_Batch = List[Tuple[Address, Address, Any]]

_KIND_JSON = 0x4A     # 'J'
_KIND_HELLO = 0x48    # 'H'
_KIND_ACK = 0x41      # 'A'
_KIND_SEGMENT = 0x42  # 'B'

_JSON_PREFIX = bytes((_KIND_JSON,))
_HELLO_PREFIX = bytes((_KIND_HELLO,))
_ACK_PREFIX = bytes((_KIND_ACK,))
_SEGMENT_PREFIX = bytes((_KIND_SEGMENT,))


class LiveConnectivity:
    """Scripted partitions for a live cell (shared across its runtimes).

    The live analogue of :class:`~repro.sim.partitions.ScriptedConnectivity`:
    a mutable set of blocked (src, dst) directed pairs consulted at send
    time.  All runtimes of an in-process cell share one instance, so a
    test partitions the cell with plain method calls.
    """

    def __init__(self) -> None:
        self._blocked: set[Tuple[Address, Address]] = set()

    def allows(self, src: Address, dst: Address) -> bool:
        return (src, dst) not in self._blocked

    def set_down(self, a: Address, b: Address) -> None:
        self._blocked.add((a, b))
        self._blocked.add((b, a))

    def set_up(self, a: Address, b: Address) -> None:
        self._blocked.discard((a, b))
        self._blocked.discard((b, a))

    def isolate(self, address: Address, others: Iterable[Address]) -> None:
        for other in others:
            self.set_down(address, other)

    def reconnect(self, address: Address, others: Iterable[Address]) -> None:
        for other in others:
            self.set_up(address, other)

    def heal(self) -> None:
        self._blocked.clear()


class _Link(asyncio.Protocol):
    """One TCP connection's wire state, in either direction.

    An *outbound* link (``endpoint`` set) belongs to one ``(host,
    port)`` — so a fan-out to many nodes of one remote runtime shares a
    connection and, in binary, a segment — connects lazily on its first
    batch and reconnects on the next one after a loss.  An *accepted*
    link (``endpoint`` None) lives as long as its connection and
    carries replies to senders that have no server of their own.  The
    link is the connection's :class:`asyncio.Protocol`: the selector
    hands it bytes, it deframes, authenticates, decodes and queues the
    messages on the runtime, and the runtime's pass runs before
    ``data_received`` returns.

    Batches of ``(src, dst, message)`` are encoded *at write time*,
    after the handshake has picked this connection's codec and created
    its fresh :class:`BinaryEncoder` — whatever bytes reach the wire
    were produced by the encoder whose state the peer's decoder
    mirrors.  A ready link writes a batch inline; while it is
    connecting, negotiating, or told to ``pause_writing`` (the peer is
    not reading), batches park in ``backlog`` — at most
    :data:`_LINK_QUEUE_LIMIT`, beyond which they are dropped and
    counted — and drain in order afterwards.
    """

    def __init__(
        self, owner: "SocketTransport", endpoint: Optional[Tuple[str, int]] = None
    ) -> None:
        self.owner = owner
        self.endpoint = endpoint
        #: The session name the far end of an outbound link is sealed to.
        self.label = f"{endpoint[0]}:{endpoint[1]}" if endpoint else ""
        self.sock: Optional[asyncio.Transport] = None
        self.ready = False    # connected, negotiated, not closing
        self.paused = False
        self.closed = False   # shut down for good by the owner
        self.backlog: Deque[_Batch] = deque()
        self.routed: Set[Address] = set()  # return routes pointing here
        self._task: Optional["asyncio.Task[None]"] = None
        self._ack: Optional["asyncio.Future[str]"] = None
        self._reset()

    def _reset(self) -> None:
        """Fresh per-connection state: framing, codec, dictionaries."""
        self.frames = FrameReader()
        #: Set once the handshake agreed to send / receive binary here; a
        #: link without an encoder sends J frames, which need no hello.
        self.encoder: Optional[BinaryEncoder] = None
        self.decoder: Optional[BinaryDecoder] = None
        #: (local, remote) session names segments on this link are sealed under.
        self.names: Tuple[str, str] = ("", "")

    # -- outbound -----------------------------------------------------------------
    def submit(self, batch: _Batch) -> None:
        """Ship one flushed batch: now if the link is clear, else in order."""
        if self.ready and not self.paused and not self.backlog:
            self._write(batch)
        elif self.closed or (self.endpoint is None and self.sock is None):
            self._drop(batch, "connection lost" if self.endpoint else "return route lost")
        elif len(self.backlog) >= _LINK_QUEUE_LIMIT:
            self._drop(batch, "link queue full")
        else:
            self.backlog.append(batch)
            self._connect_if_idle()

    def _connect_if_idle(self) -> None:
        if self.sock is None and self._task is None and self.endpoint and not self.closed:
            self._task = asyncio.get_running_loop().create_task(
                self._connect(), name=f"link-connect:{self.label}"
            )

    def _drop(self, batch: _Batch, reason: str) -> None:
        for _src, dst, _message in batch:
            self.owner._count_drop(dst, reason)

    def _drop_backlog(self, reason: str) -> None:
        while self.backlog:
            self._drop(self.backlog.popleft(), reason)

    def _drain(self) -> None:
        while self.backlog and self.ready and not self.paused:
            self._write(self.backlog.popleft())

    def _write(self, batch: _Batch) -> None:
        """Encode one batch under the connection's codec and write it."""
        assert self.sock is not None
        owner = self.owner
        auth = owner.auth
        if self.encoder is not None:
            items: List[Tuple[str, str, bytes]] = []
            for src, dst, message in batch:
                try:
                    items.append((src, dst, self.encoder.encode(message)))
                except CodecError as exc:
                    owner._count_drop(dst, f"encode: {exc}")
            if not items:
                return
            try:
                frame = encode_frame(_SEGMENT_PREFIX + auth.seal_segment(*self.names, items))
            except FrameError as exc:
                self._drop(batch, f"encode: {exc}")
                return
            owner.wire["segments_sent"] += 1
            owner.wire["segment_msgs_sent"] += len(items)
            nframes = 1
        else:
            # JSON link: one frame per message, still a single write.
            out = bytearray()
            nframes = 0
            for src, dst, message in batch:
                try:
                    out += encode_frame(_JSON_PREFIX + auth.seal(src, dst, encode_message(message)))
                    nframes += 1
                except (CodecError, FrameError) as exc:
                    owner._count_drop(dst, f"encode: {exc}")
            if not nframes:
                return
            frame = bytes(out)
        self.sock.write(frame)
        owner._wire_wrote(len(frame), nframes)

    async def _connect(self) -> None:
        """Connect (with retries), then negotiate this connection's codec.

        A fresh connection always re-negotiates and gets a fresh
        encoder: the remote decoder died with the old connection, so
        dictionary state must restart from empty on both sides.
        """
        assert self.endpoint is not None
        owner = self.owner
        loop = asyncio.get_running_loop()
        try:
            for attempt in range(owner.connect_retries):
                try:
                    await loop.create_connection(lambda: self, *self.endpoint)
                    break
                except OSError:
                    await asyncio.sleep(owner.connect_backoff * (attempt + 1))
            else:
                # Connection refused after retries: the batches are
                # lost, like messages into a dead partition.
                self._drop_backlog("connect failed")
                return
            if owner.codec == "binary":
                await self._negotiate(loop)
        finally:
            self._task = None
        if self.sock is None:
            self._drop_backlog("connection lost")
            return
        self.ready = True
        self._drain()

    async def _negotiate(self, loop: asyncio.AbstractEventLoop) -> None:
        assert self.sock is not None
        owner = self.owner
        self.names = (owner.endpoint_name(), self.label)
        self._ack = loop.create_future()
        hello = json.dumps({"codec": "binary", "v": 1}).encode("utf-8")
        frame = encode_frame(_HELLO_PREFIX + owner.auth.seal(*self.names, hello))
        self.sock.write(frame)
        owner._wire_wrote(len(frame))
        try:
            codec = await asyncio.wait_for(self._ack, timeout=_HELLO_TIMEOUT)
        except asyncio.TimeoutError:
            # A server that never answers hellos is a JSON-era server;
            # fall back rather than stall the link.
            codec = "json"
        finally:
            self._ack = None
        if codec == "binary":
            self.encoder = BinaryEncoder()

    # -- asyncio.Protocol -----------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._reset()
        self.sock = transport
        self.paused = False
        if self.endpoint is None:
            if self.owner._server is None:  # accepted while the transport was closing
                self.closed = True
                transport.abort()
                return
            self.owner._accepted.add(self)
            self.ready = True

    def data_received(self, data: bytes) -> None:
        self.owner._runtime.pump(self._feed, data)

    def eof_received(self) -> None:
        self.ready = False  # asyncio closes the transport; connection_lost follows

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._drain()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        owner = self.owner
        self.sock = None
        self.ready = False
        if self._ack is not None and not self._ack.done():
            self._ack.set_result("json")  # unblocks _connect, which sees sock is None
        for name in self.routed:
            if owner._routes.get(name) is self:
                del owner._routes[name]
        self.routed.clear()
        if self.endpoint is None:
            owner._accepted.discard(self)
            self._drop_backlog("return route lost")
        elif self.backlog and not self.closed:
            self._connect_if_idle()

    def shutdown(self) -> Optional["asyncio.Task[None]"]:
        """Close for good; returns the cancelled connect task, if any."""
        self.closed = True
        self.ready = False
        self._drop_backlog("connection lost")
        task = self._task
        if task is not None:
            task.cancel()
        if self.sock is not None:
            # A peer that is not reading would hold close() open forever.
            if self.sock.get_write_buffer_size():
                self.sock.abort()
            else:
                self.sock.close()
        return task

    # -- inbound ---------------------------------------------------------------------
    def _feed(self, chunk: bytes) -> None:
        """Deframe one chunk and queue its messages on the runtime.

        Authentication and codec failures drop the single frame (counted
        and traced); framing errors and dictionary divergence poison the
        stream, so the connection is closed.  Nothing propagates: one
        hostile client cannot take down the server loop.
        """
        owner = self.owner
        owner.wire["bytes_received"] += len(chunk)
        try:
            bodies = self.frames.feed(chunk)
        except FrameError as exc:
            owner._reject("frame", str(exc))
            self._reset_connection()
            return
        for body in bodies:
            if not self._on_frame(body):
                self._reset_connection()
                return

    def _reset_connection(self) -> None:
        self.ready = False
        if self.sock is not None:
            self.sock.close()

    def _on_frame(self, body: bytes) -> bool:
        """Dispatch one frame by kind; False means close the connection."""
        owner = self.owner
        owner.wire["frames_received"] += 1
        kind = body[0]
        blob = body[1:]
        if kind == _KIND_SEGMENT:
            return self._on_segment(blob)
        if kind == _KIND_JSON:
            self._on_json_frame(blob)
        elif kind == _KIND_HELLO:
            self._on_hello(blob)
        elif kind == _KIND_ACK:
            self._on_ack(blob)
        else:
            # Unknown kind: drop the frame, keep the connection — a newer
            # peer may interleave kinds this build does not know.
            owner._reject("frame", f"unknown frame kind 0x{kind:02x}")
        return True

    def _accept(self, sender: Address, recipient: Address, message: Any) -> None:
        """Queue one authenticated message; learn the sender's way back."""
        owner = self.owner
        if sender not in owner.peers and sender not in owner.nodes:
            # Transient client (no server of its own): remember the way back.
            owner._routes[sender] = self
            self.routed.add(sender)
        if recipient not in owner.nodes:
            owner._count_drop(recipient, "unknown recipient")
            return
        owner._runtime.deliver(sender, recipient, message)

    def _on_json_frame(self, blob: bytes) -> None:
        owner = self.owner
        try:
            sender, recipient, payload = owner.auth.open(blob)
        except AuthError as exc:
            owner._reject(exc.kind, exc.detail)
            return
        try:
            message = decode_message(payload)
        except CodecError as exc:
            owner._reject("codec", str(exc))
            return
        self._accept(sender, recipient, message)

    def _on_segment(self, blob: bytes) -> bool:
        """Handle one coalesced binary segment; False closes the stream."""
        owner = self.owner
        if self.decoder is None:
            # Segments before a completed handshake can only mean the
            # peer thinks this connection negotiated binary and we do
            # not — dictionary state is unknowable, so reset the
            # connection rather than guess.
            owner._reject("frame", "binary segment before negotiation")
            return False
        try:
            _sender, _recipient, items = owner.auth.open_segment(blob)
        except AuthError as exc:
            owner._reject(exc.kind, exc.detail)
            # The decoder never saw the segment's definitions, so the
            # dictionaries have diverged; reset the connection.
            return False
        owner.wire["segments_received"] += 1
        owner.wire["segment_msgs_received"] += len(items)
        for src, dst, body in items:
            try:
                message = self.decoder.decode(body)
            except CodecError as exc:
                # Any mid-segment decode failure leaves the dictionary
                # in an unknown state: connection-fatal by design.
                owner._reject("codec", str(exc))
                return False
            self._accept(src, dst, message)
        return True

    def _on_hello(self, blob: bytes) -> None:
        owner = self.owner
        try:
            sender, recipient, payload = owner.auth.open(blob)
        except AuthError as exc:
            owner._reject(exc.kind, exc.detail)
            return
        try:
            fields = json.loads(payload.decode("utf-8"))
            wanted = fields["codec"]
            if not isinstance(wanted, str):
                raise TypeError("codec must be a string")
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            owner._reject("codec", f"bad hello: {exc}")
            return
        accepted = {"json", "binary"} if owner.accept_binary else {"json"}
        if wanted in accepted:
            verdict, reason = True, ""
            if wanted == "binary":
                self.decoder = BinaryDecoder()
                self.names = (recipient, sender)
                if owner.codec == "binary":
                    # Replies go back down this connection as segments.
                    self.encoder = BinaryEncoder()
        else:
            # Structured rejection: counted, answered, connection kept.
            verdict, reason = False, f"codec {wanted!r} not accepted"
            owner.auth.rejected["negotiation"] += 1
            owner._reject("negotiation", reason)
        ack = json.dumps(
            {"accept": verdict, "codec": wanted if verdict else "json", "reason": reason}
        ).encode("utf-8")
        frame = encode_frame(_ACK_PREFIX + owner.auth.seal(recipient, sender, ack))
        if self.sock is not None and not self.sock.is_closing():
            self.sock.write(frame)
            owner._wire_wrote(len(frame))

    def _on_ack(self, blob: bytes) -> None:
        owner = self.owner
        try:
            sender, _recipient, payload = owner.auth.open(blob)
        except AuthError as exc:
            owner._reject(exc.kind, exc.detail)
            return
        waiter = self._ack
        if waiter is None or waiter.done() or sender != self.label:
            owner._reject("frame", f"unsolicited codec ack from {sender}")
            return
        try:
            fields = json.loads(payload.decode("utf-8"))
            accepted = bool(fields["accept"])
            codec = fields["codec"] if accepted else "json"
            if codec not in CODECS:
                raise ValueError(f"unknown codec {codec!r}")
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            owner._reject("codec", f"bad codec ack: {exc}")
            waiter.set_result("json")
            return
        if codec == "binary":
            # Reply segments from this endpoint arrive on this same
            # connection; mirror its encoder with a fresh decoder.
            self.decoder = BinaryDecoder()
        waiter.set_result(codec)


class SocketTransport(Transport):
    """The :class:`~repro.net.transport.Transport` over real TCP.

    ``runtime`` is the owning :class:`~repro.net.runtime.LiveRuntime`;
    it supplies the event environment, the tracer, the asyncio loop,
    and asynchronous local delivery (``runtime.deliver``), which keeps
    ``handle_message`` off the sender's stack exactly as in the sim.

    ``codec`` is the *outbound preference*: ``"json"`` sends legacy
    per-message frames (byte-compatible with PR 7); ``"binary"``
    negotiates the interned binary codec per connection and coalesces
    each flush into per-endpoint segments.  ``accept_binary`` governs
    the *inbound* side — when off, binary hellos get a structured
    negotiation rejection and the peer downgrades to JSON.
    """

    def __init__(
        self,
        runtime: Any,
        secret: bytes,
        lifetime: float = DEFAULT_LIFETIME,
        connectivity: Optional[LiveConnectivity] = None,
        connect_retries: int = 5,
        connect_backoff: float = 0.05,
        codec: str = "json",
        accept_binary: bool = True,
    ) -> None:
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r} (choose from {CODECS})")
        self._runtime = runtime
        self.auth = SessionAuth(secret, lifetime=lifetime)
        self.connectivity = connectivity
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.codec = codec
        self.accept_binary = accept_binary
        self.nodes: Dict[Address, Any] = {}
        self.peers: Dict[Address, Tuple[str, int]] = {}
        self._links: Dict[Tuple[str, int], _Link] = {}   # outbound, per endpoint
        self._accepted: Set[_Link] = set()               # inbound, until they close
        self._routes: Dict[Address, _Link] = {}          # way back to transient clients
        self._endpoint_name: Optional[str] = None
        # Coalescing buffer: what each link gets at the next flush.
        self._pending: Dict[_Link, _Batch] = {}
        self._pending_count = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._server_port: Optional[int] = None
        # Counters (mirror the sim Network's) — part of the live report.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.frames_rejected = 0
        #: Wire-level counters for the A/B report: raw bytes and frames
        #: both ways, plus segment/coalescing shape.
        self.wire: Dict[str, int] = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
            "frames_received": 0,
            "segments_sent": 0,
            "segments_received": 0,
            "segment_msgs_sent": 0,
            "segment_msgs_received": 0,
        }

    # -- properties delegated to the runtime --------------------------------
    @property
    def env(self) -> Any:
        return self._runtime.env

    @property
    def tracer(self) -> Any:
        return self._runtime.tracer

    @property
    def port(self) -> Optional[int]:
        """The bound server port (None until the server is started)."""
        return self._server_port

    def endpoint_name(self) -> str:
        """The stable session name this transport handshakes under.

        Used as the sealed sender of hellos and outbound segments — a
        single nonce counter all this endpoint's connections share (each
        connection sees an increasing subsequence, which is all the
        replay check requires).  Pinned on first use so late node
        registration cannot change it mid-session.
        """
        if self._endpoint_name is None:
            self._endpoint_name = min(self.nodes) if self.nodes else "client"
        return self._endpoint_name

    def wire_stats(self) -> Dict[str, Any]:
        """Wire counters plus derived coalescing shape, for reports."""
        stats: Dict[str, Any] = dict(self.wire)
        stats["codec"] = self.codec
        segments = stats["segments_sent"]
        stats["msgs_per_segment"] = (
            stats["segment_msgs_sent"] / segments if segments else 0.0
        )
        return stats

    # -- membership ----------------------------------------------------------
    def register(self, node: Any) -> Any:
        if node.address in self.nodes:
            raise ValueError(f"duplicate address {node.address!r}")
        self.nodes[node.address] = node
        node.attach(self)
        return node

    def set_peers(self, directory: Dict[Address, Tuple[str, int]]) -> None:
        """Install/extend the address -> (host, port) peer directory."""
        self.peers.update(directory)

    # -- server ----------------------------------------------------------------
    async def start_server(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the frame server; returns the (possibly ephemeral) port."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(lambda: _Link(self), host, port)
        self._server_port = self._server.sockets[0].getsockname()[1]
        return self._server_port

    # -- transmission -----------------------------------------------------------
    def send(self, src: Address, dst: Address, message: Any) -> None:
        src_node = self.nodes.get(src)
        if src_node is not None and not src_node.up:
            self._count_drop(dst, "sender down")
            return
        if self.connectivity is not None and not self.connectivity.allows(src, dst):
            self._count_drop(dst, "partitioned")
            return
        self.messages_sent += 1
        if self.tracer.wants(TraceKind.MSG_SENT):
            self.tracer.publish(
                TraceKind.MSG_SENT, src, dst=dst, message_kind=type(message).__name__
            )
        else:
            self.tracer.bump(TraceKind.MSG_SENT)
        if dst in self.nodes:
            # Local loopback still goes through the codec so both halves
            # of a conversation see identically-normalised messages.
            try:
                if self.codec == "binary":
                    wire = decode_bin(encode_bin(message))
                else:
                    wire = decode_message(encode_message(message))
            except CodecError as exc:
                self._count_drop(dst, f"codec: {exc}")
                return
            self._runtime.deliver(src, dst, wire)
            return
        endpoint = self.peers.get(dst)
        if endpoint is not None:
            link = self._links.get(endpoint)
            if link is None:
                link = self._links[endpoint] = _Link(self, endpoint)
        else:
            link = self._routes.get(dst)
            if link is None:
                self._count_drop(dst, "unknown destination")
                return
        batch = self._pending.get(link)
        if batch is None:
            batch = self._pending[link] = []
        batch.append((src, dst, message))
        self._pending_count += 1
        if self._pending_count >= _FLUSH_LIMIT:
            self.flush()
        else:
            # Sends can originate outside a pass (tests, admin paths);
            # make sure a pass — and therefore a flush — follows.
            self._runtime.wake()

    def flush(self) -> None:
        """Hand every link the batch buffered for it since the last flush.

        Called by the runtime once per pass (its explicit flush bound:
        messages never wait longer than the pass that produced them)
        and by :meth:`send` when a single pass buffers
        :data:`_FLUSH_LIMIT` messages.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._pending_count = 0
        for link, batch in pending.items():
            link.submit(batch)

    def _deliver_now(self, src: Address, dst: Address, message: Any) -> None:
        """Hand a queued inbound message to its node (inside a pass only)."""
        node = self.nodes.get(dst)
        if node is None or not node.up:
            self._count_drop(dst, "recipient down")
            return
        self.messages_delivered += 1
        if self.tracer.wants(TraceKind.MSG_DELIVERED):
            self.tracer.publish(
                TraceKind.MSG_DELIVERED, dst, src=src, message_kind=type(message).__name__
            )
        else:
            self.tracer.bump(TraceKind.MSG_DELIVERED)
        node.handle_message(src, message)

    # -- bookkeeping -------------------------------------------------------------
    def _wire_wrote(self, nbytes: int, frames: int = 1) -> None:
        self.wire["bytes_sent"] += nbytes
        self.wire["frames_sent"] += frames

    def _count_drop(self, dst: Address, reason: str) -> None:
        self.messages_dropped += 1
        if self.tracer.wants(TraceKind.MSG_DROPPED):
            self.tracer.publish(TraceKind.MSG_DROPPED, "net", dst=dst, reason=reason)
        else:
            self.tracer.bump(TraceKind.MSG_DROPPED)

    def _reject(self, kind: str, detail: str) -> None:
        self.frames_rejected += 1
        if self.tracer.wants(TraceKind.MSG_DROPPED):
            self.tracer.publish(
                TraceKind.MSG_DROPPED, "net", reason=f"rejected:{kind}", detail=detail
            )
        else:
            self.tracer.bump(TraceKind.MSG_DROPPED)

    # -- shutdown ----------------------------------------------------------------
    async def close(self) -> None:
        """Flush, then close the server and every link.

        What is already written still drains to peers that are reading;
        batches parked behind a connect, a handshake or a stalled peer
        are dropped rather than waited for.
        """
        self.flush()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        links = [*self._links.values(), *self._accepted]
        self._links.clear()
        self._routes.clear()
        tasks = [task for task in (link.shutdown() for link in links) if task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            # From 3.12 this waits for every accepted connection to be gone.
            await server.wait_closed()
