"""Addressable simulation nodes.

A :class:`Node` is anything with a network address that can receive
messages: application hosts, managers, workload drivers.  Nodes are attached to a :class:`~repro.sim.network.Network`,
which gives them ``env``, ``tracer`` and send primitives.

Crash semantics follow the paper's model: a crashed node neither sends
nor receives; volatile state handling on crash/recovery is up to the
subclass (``on_crash`` / ``on_recover`` hooks).  Manager nodes keep
their ACL in stable storage and resync on recovery; application hosts
simply lose their cache (Section 3.4: "ACL_cache(A) can simply be
initialized to null").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

from ..auth.identity import SignedMessage
from .engine import Environment, Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .network import Network

__all__ = ["Node", "Address"]

#: Node addresses are plain strings (the paper: "a host would be
#: identified by its Internet address").
Address = str


class Node:
    """Base class for every addressable process in the simulation."""

    #: The kinds this role accepts: message type -> name of the method
    #: called as ``method(src, message)``.  A signed kind is keyed
    #: ``(SignedMessage, payload type)``: a role must name it to accept it.
    handlers: Dict[Any, str] = {}

    def __init__(self, address: Address):
        self.address: Address = address
        self.network: Optional["Network"] = None
        self.up: bool = True
        #: Deliveries of a kind outside :attr:`handlers`, dropped unread.
        self.rejected_kinds = 0

    # -- wiring --------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Called by ``Network.register``; subclasses may extend to start
        their background processes (call ``super().attach`` first)."""
        self.network = network

    @property
    def env(self) -> Environment:
        if self.network is None:
            raise RuntimeError(f"node {self.address!r} is not attached to a network")
        return self.network.env

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Start a background process owned by this node."""
        return self.env.process(generator, name=name or f"{self.address}/proc")

    # -- messaging -------------------------------------------------------------
    def send(self, dst: Address, message: Any) -> None:
        """Best-effort point-to-point send (may be lost to partitions)."""
        if self.network is None:
            raise RuntimeError(f"node {self.address!r} is not attached to a network")
        self.network.send(self.address, dst, message)

    def multicast(self, dsts: Iterable[Address], message: Any) -> None:
        """Best-effort multicast (independent per-destination delivery)."""
        if self.network is None:
            raise RuntimeError(f"node {self.address!r} is not attached to a network")
        self.network.multicast(self.address, dsts, message)

    def send_many(self, items: Iterable[tuple], on_sent=None) -> None:
        """Batch of ``(dst, message)`` unicasts; see ``Network.send_many``."""
        if self.network is None:
            raise RuntimeError(f"node {self.address!r} is not attached to a network")
        self.network.send_many(self.address, items, on_sent)

    def handle_message(self, src: Address, message: Any) -> None:
        """Deliver a message to this node: the one ingress path.

        The handler is looked up on ``self`` by name, so an override
        still wins.  A kind outside :attr:`handlers` (a stray or hostile
        frame) is dropped and counted instead of raising.
        """
        kind = type(message)
        if kind is SignedMessage:
            kind = (SignedMessage, type(message.payload))
        name = self.handlers.get(kind)
        if name is None:
            self.rejected_kinds += 1
            return
        getattr(self, name)(src, message)

    # -- failure hooks ------------------------------------------------------------
    def crash(self) -> None:
        """Mark the node down and invoke the subclass hook (idempotent)."""
        if not self.up:
            return
        self.up = False
        self.on_crash()

    def recover(self) -> None:
        """Mark the node up and invoke the subclass hook (idempotent)."""
        if self.up:
            return
        self.up = True
        self.on_recover()

    def on_crash(self) -> None:
        """Subclass hook: discard volatile state."""

    def on_recover(self) -> None:
        """Subclass hook: reinitialise after a crash."""

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<{type(self).__name__} {self.address} {state}>"
