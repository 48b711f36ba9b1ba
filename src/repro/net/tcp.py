""":class:`SocketTransport` — the transport interface over asyncio TCP.

Wire format: every frame is ``4-byte BE length || 'B' || segment``, a
sealed binary segment — ``HMAC || segment`` carrying a whole flush's
worth of messages for one endpoint: one length prefix, one replay
nonce, and one MAC amortised over the batch, each message body encoded
by the connection's :class:`~repro.net.codec_bin.BinaryEncoder` (see
:meth:`repro.net.session.SessionAuth.seal_segment`).  The kind byte is
kept so the layout stays self-identifying; any other kind is a
protocol error that closes the connection.

Topology: every long-lived cell node runs a frame server; for each
known peer *endpoint* a lazily-connected outbound :class:`_Link`
carries this endpoint's batches.  Links are full-duplex — replies may
come back on the same connection — and inbound connections from
addresses *not* in the peer directory (e.g. transient ``repro load``
clients, which run no server) are remembered as *return routes* so
responses to them travel back over the connection they arrived on.
One link class serves both directions, and it is the connection's
:class:`asyncio.Protocol`: no task, future or queue sits on the
per-message path.  Inbound, the selector's read callback runs
``data_received`` → :meth:`FrameReader.feed` → MAC check → decode →
``runtime.deliver`` and then the runtime's pass, all in that one
callback; outbound, :meth:`SocketTransport.flush` — called once per
pass, so latency never regresses past the pass that produced the
messages — hands each link its batch, which a ready link encodes,
seals and writes inline.  Only connecting runs as a (short-lived)
task.  A peer that stops reading makes asyncio call ``pause_writing``;
from then on batches park in the link's bounded backlog and overflow
is dropped and counted, in either direction.

Codec state is scoped to one TCP connection per direction: the
interning dictionaries of a :class:`BinaryEncoder`/``BinaryDecoder``
pair stay consistent because TCP delivers that connection's frames in
order, and any divergence (a :class:`DictionaryError`, which can only
mean a bug or an attack) closes the connection so the automatic
reconnect resets both sides.

Failure semantics mirror the sim :class:`~repro.sim.network.Network`:
``send`` is synchronous fire-and-forget; connection failures, unknown
destinations, crashed endpoints, authentication failures, and scripted
partitions all silently drop the frame (counted and traced, never
raised into protocol code).  Reliability is the protocol's own
retry/ack machinery, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..core.ids import Interner
from ..sim.partitions import ScriptedConnectivity
from ..sim.trace import TraceKind
from .codec import CodecError, FrameError, FrameReader, encode_frame
from .codec_bin import BinaryDecoder, BinaryEncoder
from .session import AuthError, SessionAuth
from .transport import Address, Transport

__all__ = ["SocketTransport"]

#: Bound on batches parked on one link (connecting, or the peer not
#: reading) before further batches drop.
_LINK_QUEUE_LIMIT = 4096

#: Pending sends per transport that force an early flush mid-pass, so a
#: pathological burst inside one runtime pass cannot buffer
#: unboundedly before hitting the wire.
_FLUSH_LIMIT = 128

#: One flush's worth of ``(src, dst, message)`` for one link.
_Batch = List[Tuple[Address, Address, Any]]

_KIND_SEGMENT = 0x42  # 'B'
_SEGMENT_PREFIX = bytes((_KIND_SEGMENT,))


class _Link(asyncio.Protocol):
    """One TCP connection's wire state, in either direction.

    An *outbound* link (``endpoint`` set) belongs to one ``(host,
    port)`` — so a fan-out to many nodes of one remote runtime shares a
    connection and a segment — connects lazily on its first batch and
    reconnects on the next one after a loss.  An *accepted*
    link (``endpoint`` None) lives as long as its connection and
    carries replies to senders that have no server of their own.  The
    link is the connection's :class:`asyncio.Protocol`: the selector
    hands it bytes, it deframes, authenticates, decodes and queues the
    messages on the runtime, and the runtime's pass runs before
    ``data_received`` returns.

    Batches of ``(src, dst, message)`` are encoded *at write time* by
    the fresh :class:`BinaryEncoder` the connection got when it was
    made — whatever bytes reach the wire were produced by the encoder
    whose state the peer's decoder mirrors.  A ready link writes a
    batch inline; while it is connecting or told to ``pause_writing``
    (the peer is not reading), batches park in ``backlog`` — at most
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
        self.ready = False    # connected, not closing
        self.paused = False
        self.closed = False   # shut down for good by the owner
        self.backlog: Deque[_Batch] = deque()
        self.routed: Set[Address] = set()  # return routes pointing here
        self._task: Optional["asyncio.Task[None]"] = None
        self._reset()

    def _reset(self) -> None:
        """Fresh per-connection state: framing and both dictionaries."""
        self.frames = FrameReader()
        self.encoder = BinaryEncoder()
        self.decoder = BinaryDecoder()
        self.decoder.interner = self.owner.interner
        #: (local, remote) session names segments on this link are sealed
        #: under: set on connect for an outbound link, and from the first
        #: segment that verifies for an accepted one.
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
        """Encode one batch into one sealed segment and write it."""
        assert self.sock is not None
        owner = self.owner
        items: List[Tuple[str, str, bytes]] = []
        for src, dst, message in batch:
            try:
                items.append((src, dst, self.encoder.encode(message)))
            except CodecError as exc:
                owner._count_drop(dst, f"encode: {exc}")
        if not items:
            return
        try:
            frame = encode_frame(_SEGMENT_PREFIX + owner.auth.seal_segment(*self.names, items))
        except FrameError as exc:
            self._drop(batch, f"encode: {exc}")
            return
        wire = owner.wire
        wire["bytes_sent"] += len(frame)
        wire["frames_sent"] += 1
        wire["segments_sent"] += 1
        wire["segment_msgs_sent"] += len(items)
        self.sock.write(frame)

    async def _connect(self) -> None:
        """Connect, with retries; :meth:`connection_made` drains the backlog.

        A fresh connection gets a fresh encoder: the remote decoder died
        with the old connection, so dictionary state must restart from
        empty on both sides.
        """
        assert self.endpoint is not None
        owner = self.owner
        loop = asyncio.get_running_loop()
        try:
            for attempt in range(owner.connect_retries):
                try:
                    await loop.create_connection(lambda: self, *self.endpoint)
                    return
                except OSError:
                    await asyncio.sleep(owner.connect_backoff * (attempt + 1))
            # Connection refused after retries: the batches are lost,
            # like messages into a dead partition.
            self._drop_backlog("connect failed")
        finally:
            self._task = None

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
        else:
            self.names = (self.owner.endpoint_name(), self.label)
        self.ready = True
        self._drain()

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

        Any framing, authentication or codec failure is counted and
        traced, and closes the connection (the sender's next batch
        reconnects with fresh dictionaries).  Nothing propagates: one
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
        """Open, decode and queue one segment; False closes the connection.

        Every failure is connection-fatal: a rejected segment's
        dictionary definitions never reached the decoder, and a frame of
        any other kind is nothing this wire carries, so nothing legal can
        follow on this stream.
        """
        owner = self.owner
        owner.wire["frames_received"] += 1
        if body[0] != _KIND_SEGMENT:
            owner._reject("frame", f"unknown frame kind 0x{body[0]:02x}")
            return False
        try:
            sender, recipient, items = owner.auth.open_segment(body[1:])
        except AuthError as exc:
            owner._reject(exc.kind, exc.detail)
            return False
        if not self.names[0]:
            # Accepted link: replies go back sealed to whoever this is.
            self.names = (recipient, sender)
        owner.wire["segments_received"] += 1
        owner.wire["segment_msgs_received"] += len(items)
        for src, dst, blob in items:
            try:
                message = self.decoder.decode(blob)
            except CodecError as exc:
                # Any mid-segment decode failure leaves the dictionary
                # in an unknown state: connection-fatal by design.
                owner._reject("codec", str(exc))
                return False
            self._accept(src, dst, message)
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


class SocketTransport(Transport):
    """The :class:`~repro.net.transport.Transport` over real TCP.

    ``runtime`` is the owning :class:`~repro.net.runtime.LiveRuntime`;
    it supplies the event environment, the tracer, the asyncio loop,
    and asynchronous local delivery (``runtime.deliver``), which keeps
    ``handle_message`` off the sender's stack exactly as in the sim.
    Each flush is coalesced into one sealed segment per endpoint.
    """

    def __init__(
        self,
        runtime: Any,
        secret: bytes,
        connectivity: Optional[ScriptedConnectivity] = None,
        connect_retries: int = 5,
        connect_backoff: float = 0.05,
    ) -> None:
        self._runtime = runtime
        self.auth = SessionAuth(secret)
        self.connectivity = connectivity
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.nodes: Dict[Address, Any] = {}
        #: The first registered node's name interner, lent to every decoder.
        self.interner: Optional[Interner] = None
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

    def endpoint_name(self) -> str:
        """The stable session name this transport seals outbound segments under.

        One name means one nonce counter all this endpoint's outbound
        connections share (each
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
        ids = getattr(node, "_ids", None)
        if self.interner is None and isinstance(ids, Interner):
            self.interner = ids
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
        if self.connectivity is not None and not self.connectivity.is_reachable(src, dst):
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
                wire = BinaryDecoder().decode(BinaryEncoder().encode(message))
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
        batches parked behind a connect or a stalled peer
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
