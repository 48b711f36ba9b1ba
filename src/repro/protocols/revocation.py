"""Revocation forwarding: flush cached grants before they expire.

"If the operation is a revocation, the manager forwards it to all
hosts to which it has granted access permission for U" (Section 3.1),
retrying until acked or until "the access right would have expired
based on the time mechanism" (Section 3.4) — at which point cache
expiry covers the host anyway.  The grant table itself lives on the
manager (it is volatile crash state); this object is pure strategy.
"""

from __future__ import annotations

from ..core.messages import AclUpdate, RevokeNotify
from ..sim.node import Address
from ..sim.trace import TraceKind
from .messaging import retry_until_acked

__all__ = ["RevocationForwarder"]


class RevocationForwarder:
    """Forwards a revocation to every host in the grant table."""

    def forward(self, manager, update: AclUpdate) -> None:
        """Spawn a notify loop per host still holding the grant."""
        table = manager._grant_table.get(update.application, {})
        holders = table.pop((update.user, update.right), ())
        for host, deadline in zip(holders[::2], holders[1::2]):
            if manager.env.now >= deadline:
                continue  # the cached right has already expired
            manager.spawn(
                self.notify(manager, host, update, deadline),
                name=f"{manager.address}/revoke-notify:{host}",
            )

    def notify(self, manager, host: Address, update: AclUpdate, deadline: float):
        """Retry ``RevokeNotify`` until acked or the Te deadline."""
        policy = manager.policy_for(update.application)
        acked = manager.env.event()
        notify_id = manager._notifies.allocate(lambda ack: acked.succeed())
        message = RevokeNotify(
            application=update.application,
            user=update.user,
            right=update.right,
            version=update.version,
            notify_id=notify_id,
        )
        def trace_forwarded() -> None:
            tracer = manager.tracer
            if tracer.wants(TraceKind.REVOKE_FORWARDED):
                tracer.publish(
                    TraceKind.REVOKE_FORWARDED,
                    manager.address,
                    host=host,
                    application=update.application,
                    user=update.user,
                )
            else:
                tracer.bump(TraceKind.REVOKE_FORWARDED)

        try:
            yield from retry_until_acked(
                manager,
                host,
                message,
                policy.revoke_retry_interval,
                acked,
                deadline=deadline,
                on_sent=trace_forwarded,
            )
        finally:
            manager._notifies.discard(notify_id)
