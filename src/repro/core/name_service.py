"""Trusted name service.

Section 3.2: "the assumption [that the set of managers is fixed and
known] can easily be eliminated by using a trusted name service that
provides each host with the set of managers when requested.  If the set
of managers changes, a scheme similar to the time-based expiration of
cached information can be used to trigger a new query to the name
service."  The host-side TTL cache lives in
:class:`~repro.core.host.AccessControlHost`; this node is the
authoritative registry.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..sim.node import Address, Node
from .messages import NameLookup, NameResult

__all__ = ["TrustedNameService"]


class TrustedNameService(Node):
    """Authoritative ``application -> Managers(A)`` registry."""

    def __init__(self, address: Address = "name-service"):
        super().__init__(address)
        self._registry: Dict[str, Tuple[Address, ...]] = {}
        self.lookups_served = 0

    def register(self, application: str, managers: Sequence[Address]) -> None:
        """Record (or replace) the manager set for ``application``."""
        if not managers:
            raise ValueError("manager set must be non-empty")
        self._registry[application] = tuple(managers)

    def deregister(self, application: str) -> None:
        self._registry.pop(application, None)

    def managers_of(self, application: str) -> Tuple[Address, ...]:
        return self._registry.get(application, ())

    handlers = {NameLookup: "_on_lookup"}

    def _on_lookup(self, src: Address, lookup: NameLookup) -> None:
        self.lookups_served += 1
        self.send(
            src,
            NameResult(
                lookup_id=lookup.lookup_id,
                application=lookup.application,
                managers=self._registry.get(lookup.application, ()),
            ),
        )

    def __repr__(self) -> str:
        return f"<TrustedNameService apps={len(self._registry)}>"
