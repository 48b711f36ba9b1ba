""":class:`LiveRuntime` — a wall-clock driver for the protocol engine.

The whole protocol layer is written as generator processes over the
discrete-event :class:`~repro.sim.engine.Environment`.  Instead of
porting that code to asyncio, a live endpoint keeps a *private*
environment and advances it in real time with one synchronous *pass*:

1. run callbacks handed in from outside (:meth:`call_soon`),
2. deliver queued inbound messages (``handle_message`` executes the
   same protocol code the simulator runs),
3. advance the environment to ``sim_target = elapsed_wall x
   time_scale`` (firing due timers: retries, cache expiry, freeze
   pings),
4. flush the transport, so everything the pass produced is on the wire,

repeated while steps 1-4 themselves queued more calls or messages.
There is no driver task: a pass is a plain event-loop callback, entered
from a socket's ``data_received`` once the chunk's frames are queued,
from one ``loop.call_soon`` when :meth:`wake` is hit outside a pass, and
from one ``loop.call_at`` timer kept at the environment's next event
(at most :data:`_POLL_CAP` away, so an idle node's clock keeps up with
wall time).  A pass is never re-entered, and it is the only place
environment time advances, so protocol code never races.

``time_scale`` compresses simulated seconds into wall time, so a test
cell with multi-second protocol timeouts settles in tens of
milliseconds while real sockets stay in the loop.  One runtime hosts
one or more nodes on one :class:`~repro.net.tcp.SocketTransport`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from ..sim.engine import Environment
from ..sim.partitions import ScriptedConnectivity
from ..sim.trace import Tracer
from .tcp import SocketTransport

__all__ = ["LiveRuntime"]

#: Wall-clock cap on the gap between passes — keeps an idle node's
#: ``env.now`` tracking wall time, and notices an externally-mutated
#: environment promptly.
_POLL_CAP = 0.05


def _settle(future: "asyncio.Future[Any]", event: Any) -> None:
    """Resolve ``future`` with a processed sim event's value or failure."""
    if future.done():
        return
    if event.ok:
        future.set_result(event.value)
    else:
        future.set_exception(event.value)


class LiveRuntime:
    """Drives one endpoint's private environment in wall-clock time.

    ``codec`` accepts only ``"binary"``, the one wire there is; the
    keyword survives for callers written when it selected something.
    """

    def __init__(
        self,
        secret: bytes,
        time_scale: float = 1.0,
        connectivity: Optional[ScriptedConnectivity] = None,
        keep_log: bool = False,
        codec: str = "binary",
    ) -> None:
        if codec != "binary":
            raise ValueError(f"unknown codec {codec!r}: the live wire is binary")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=keep_log)
        self.time_scale = float(time_scale)
        self.transport = SocketTransport(self, secret, connectivity=connectivity)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox: Deque[Tuple[str, str, Any]] = deque()
        self._calls: Deque[Callable[[], None]] = deque()
        self._origin = 0.0  # loop time at which env.now was 0
        self._running = False
        self._pumping = False
        self._soon: Optional[asyncio.Handle] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._failure: Optional[Exception] = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the frame server, start passes; returns the bound port."""
        self.loop = asyncio.get_running_loop()
        bound = await self.transport.start_server(host, port)
        # Anchor wall time so sim time resumes from env.now (always 0 in
        # practice, but harmless to honour).
        self._origin = self.loop.time() - self.env.now / self.time_scale
        self._running = True
        self.wake()
        return bound

    async def stop(self) -> None:
        """Stop passes and close the transport; re-raises a failed pass."""
        self._halt()
        await self.transport.close()
        if self._failure is not None:
            raise self._failure

    def _halt(self) -> None:
        self._running = False
        for handle in (self._soon, self._timer):
            if handle is not None:
                handle.cancel()
        self._soon = self._timer = None

    @property
    def port(self) -> Optional[int]:
        return self.transport.port

    # -- wiring --------------------------------------------------------------
    def register(self, node: Any) -> Any:
        return self.transport.register(node)

    def set_peers(self, directory: Dict[str, Tuple[str, int]]) -> None:
        self.transport.set_peers(directory)

    # -- entry points from outside a pass --------------------------------------
    def deliver(self, src: str, dst: str, message: Any) -> None:
        """Queue an inbound message for asynchronous delivery."""
        self._inbox.append((src, dst, message))
        self.wake()

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` inside a pass, before the next advance."""
        self._calls.append(fn)
        self.wake()

    def wake(self) -> None:
        """Make sure a pass follows.

        Inside a pass this is a no-op: the pass re-checks both queues,
        flushes and re-arms its timer before it returns.
        """
        if self._running and not self._pumping and self._soon is None:
            assert self.loop is not None
            self._soon = self.loop.call_soon(self._on_soon)

    def when(self, event: Any) -> "asyncio.Future[Any]":
        """An asyncio future resolved when a sim event is processed.

        Works for any :class:`~repro.sim.engine.Event`, including
        :class:`~repro.sim.engine.Process` completion.  The callback
        runs inside a pass; the future resolves with the event's value
        (or its exception, if the event failed).
        """
        assert self.loop is not None, "runtime not started"
        future: "asyncio.Future[Any]" = self.loop.create_future()
        self.call_soon(lambda: event.add_callback(partial(_settle, future)))
        return future

    def run_process(self, generator: Any, name: Optional[str] = None) -> "asyncio.Future[Any]":
        """Start a protocol generator in this runtime; await its result."""
        assert self.loop is not None, "runtime not started"
        future: "asyncio.Future[Any]" = self.loop.create_future()

        def _start() -> None:
            process = self.env.process(generator, name=name or "live-call")
            process.add_callback(partial(_settle, future))

        self.call_soon(_start)
        return future

    async def wait_until(self, sim_target: float, poll: float = 0.005) -> None:
        """Block until this runtime's environment reaches ``sim_target``."""
        while self.env.now < sim_target:
            if self._failure is not None:
                raise self._failure
            await asyncio.sleep(poll)

    # -- the pass ----------------------------------------------------------------
    def pump(self, intake: Optional[Callable[[Any], None]] = None, chunk: Any = None) -> None:
        """Run passes until both queues are empty, then re-arm the timer.

        ``intake(chunk)`` is a socket handing over the bytes it just
        read: it runs first, under the same guard, so the messages it
        hands to :meth:`deliver` are handled by this very pass instead of
        scheduling another.  An exception from protocol code stops the
        runtime (:meth:`stop` re-raises it) rather than escaping into
        the event loop, which would close the connection that happened
        to carry the frame.
        """
        if self._pumping or not self._running:
            return
        assert self.loop is not None
        if self._soon is not None:
            self._soon.cancel()
            self._soon = None
        self._pumping = True
        try:
            if intake is not None:
                intake(chunk)
            calls, inbox = self._calls, self._inbox
            while True:
                while calls:
                    calls.popleft()()
                while inbox:
                    src, dst, message = inbox.popleft()
                    self.transport._deliver_now(src, dst, message)
                target = (self.loop.time() - self._origin) * self.time_scale
                # Advance through due timers; also flushes zero-delay events
                # scheduled by the deliveries above when the clock has not
                # moved (run(until=now) processes this instant's queue).
                self.env.run(until=max(self.env.now, target))
                # The flush bound of the coalescing send path: everything
                # this pass produced goes to the wire before it returns.
                self.transport.flush()
                if not calls and not inbox:
                    break
        except Exception as exc:
            self._failure = exc
            self._halt()
            return
        finally:
            self._pumping = False
        self._arm()

    def _arm(self) -> None:
        """Keep one timer at the next sim event, at most _POLL_CAP away."""
        assert self.loop is not None
        # peek() is inf on an empty queue, which leaves the cap.
        due = min(
            self.loop.time() + _POLL_CAP, self._origin + self.env.peek() / self.time_scale
        )
        timer = self._timer
        if timer is not None:
            if timer.when() <= due:
                return  # fires early at worst; that pass re-arms
            timer.cancel()
        self._timer = self.loop.call_at(due, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.pump()

    def _on_soon(self) -> None:
        self._soon = None
        self.pump()
