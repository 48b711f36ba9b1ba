"""Section 3.4 manager recovery: stable-store reload + peer resync.

A recovered manager "retrieves current access control information from
other managers before responding to access right queries": it reloads
whatever its stable store kept, then multicasts ``SyncRequest`` to its
peers until at least one snapshot merges, staying silent (the
``recovering`` flag) the whole time.
"""

from __future__ import annotations

from typing import List

from ..core.messages import SyncRequest, SyncResponse
from ..core.rights import well_formed
from ..sim.node import Address
from ..sim.trace import TraceKind

__all__ = ["RecoverySync"]


class RecoverySync:
    """The resync protocol; ``recovering`` / ``_synced_peers`` state
    stays on the manager.

    Entries from the store and from peers' snapshots pass
    :func:`~repro.core.rights.well_formed` first; a bad one is dropped and
    counted in ``manager.rejected_entries``."""

    def reload_from_store(self, manager) -> None:
        """Rebuild in-memory ACLs from the explicit stable store."""
        assert manager.store is not None
        for key in manager.store.keys("acl:"):
            entry = manager.store.read(key)
            if not well_formed(entry):
                manager.rejected_entries += 1
                continue
            application = key.split(":", 2)[1]
            if application in manager.acls:
                manager.acls[application].apply(entry)
        manager._counter = max(manager._counter, manager.store.read("counter", 0))

    def resync(self, manager, peers: List[Address]):
        """Multicast SyncRequests until some peer's snapshot arrives."""
        policy = manager.default_policy
        apps = tuple(manager.applications())
        while manager.up and manager.recovering and not manager._synced_peers:
            request = SyncRequest(requester=manager.address, applications=apps)
            manager.multicast(peers, request)
            yield manager.env.timeout(policy.query_timeout)
        if manager._synced_peers and manager.up:
            manager.recovering = False
            tracer = manager.tracer
            if tracer.wants(TraceKind.MANAGER_RESYNCED):
                tracer.publish(
                    TraceKind.MANAGER_RESYNCED,
                    manager.address,
                    peers=len(manager._synced_peers),
                )
            else:
                tracer.bump(TraceKind.MANAGER_RESYNCED)

    def handle_sync_request(self, manager, src: Address, message: SyncRequest) -> None:
        snapshots = tuple(
            (app, tuple(manager.acls[app].snapshot()))
            for app in message.applications
            if app in manager.acls
        )
        manager.send(
            src, SyncResponse(responder=manager.address, snapshots=snapshots)
        )

    def handle_sync_response(self, manager, message: SyncResponse) -> None:
        for application, entries in message.snapshots:
            if type(application) is str and application in manager.acls:
                for entry in entries:
                    if not well_formed(entry):
                        manager.rejected_entries += 1
                        continue
                    manager._apply_entry(application, entry)
                    manager._counter = max(
                        manager._counter, entry.version.counter
                    )
        manager._synced_peers.add(message.responder)
