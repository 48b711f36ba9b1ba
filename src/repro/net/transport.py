"""The backend-agnostic transport interface.

The paper's network component "provides (unreliable) point-to-point and
multicast communication"; everything the protocol layer needs from it
fits in this small surface.  Two implementations exist:

* :class:`repro.sim.network.Network` — the deterministic in-simulation
  backend (latency models, scripted partitions, loss/duplication);
* :class:`repro.net.tcp.SocketTransport` — length-prefixed frames over
  real asyncio TCP sockets, driven in wall-clock time by a
  :class:`repro.net.runtime.LiveRuntime`.

The messaging substrate (:class:`ReplyTable`, :func:`request`,
:func:`retry_until_acked` — re-exported here as the canonical import
point) and the whole strategy layer in :mod:`repro.protocols` are
written against this interface only: a node gives them ``env``,
``send``/``multicast``/``send_many``, and ``up``, and never observes
which backend delivers the bytes.  That is the property the
sim-vs-live differential suite (``tests/test_net``) pins.

Semantics every implementation must honour
------------------------------------------
* **Unreliable, fire-and-forget.**  ``send`` may silently drop
  (partition, crash, loss); there are no acknowledgements or FIFO
  guarantees here — reliability is the protocol's job.
* **Crashed endpoints neither send nor receive.**  A message from or to
  a node whose ``up`` flag is False is dropped.
* **Delivery is asynchronous**: ``handle_message`` runs from the event
  loop, never re-entrantly inside the sender's ``send`` call.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# Canonical, backend-agnostic import point for the messaging substrate.
# The implementations live in ``repro.protocols.messaging``; fixtures
# and protocol code should depend on the transport layer, not on the
# module that happens to host the code.
from ..protocols.messaging import ReplyTable, request, retry_until_acked

__all__ = ["Transport", "ReplyTable", "request", "retry_until_acked"]

#: Transport addresses are plain strings (the paper: "a host would be
#: identified by its Internet address").
Address = str


class Transport:
    """Abstract message transport connecting addressable nodes.

    Implementations provide:

    ``env``
        The event environment supplying ``now``, ``timeout``,
        ``event``, ``process``, ``any_of`` — the substrate protocol
        generators run on.  (The live backend gives every node a
        private environment advanced in wall-clock time.)
    ``tracer``
        The :class:`~repro.sim.trace.Tracer` protocol events are
        published to.
    ``nodes``
        Mapping of address -> attached node.
    """

    env: Any
    tracer: Any
    nodes: Dict[Address, Any]

    # -- membership -----------------------------------------------------------
    def register(self, node: Any) -> Any:
        """Attach ``node`` (its address must be unique) and return it."""
        raise NotImplementedError

    def node(self, address: Address) -> Any:
        return self.nodes[address]

    def addresses(self) -> List[Address]:
        return list(self.nodes)

    # -- transmission ---------------------------------------------------------
    def send(self, src: Address, dst: Address, message: Any) -> None:
        """Fire-and-forget unicast from ``src`` to ``dst``."""
        raise NotImplementedError

    def multicast(self, src: Address, dsts: Iterable[Address], message: Any) -> None:
        """Unreliable multicast: an independent unicast per destination."""
        self.send_many(src, [(dst, message) for dst in dsts])

    def send_many(
        self,
        src: Address,
        items: Iterable[Tuple[Address, Any]],
        on_sent: Optional[Callable[[Address, Any], None]] = None,
    ) -> None:
        """Batch of ``(dst, message)`` unicasts from one source.

        Must be observably identical to the equivalent ``send`` loop;
        backends may batch internally.  ``on_sent(dst, message)`` is
        invoked after each pair's send bookkeeping so callers can
        interleave their own traces.
        """
        for dst, message in items:
            self.send(src, dst, message)
            if on_sent is not None:
                on_sent(dst, message)
