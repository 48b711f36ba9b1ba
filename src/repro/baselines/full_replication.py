"""Baseline 1: full replication of the ACL to every application host.

Section 3 of the paper, first design option: "If the operations that
change rights distribute information to all hosts that execute a
particular application, then checking only requires accessing local
information.  Of course, distributing this information to all the hosts
can be costly, plus all hosts typically do not require information
about all users."

Semantics implemented here:

* Managers apply updates locally and persistently disseminate them to
  *all* peer managers and *all* application hosts, retrying forever.
* Hosts hold a complete ACL replica and decide every access locally —
  zero per-access latency and zero per-access messages.
* There is **no expiry**: a host partitioned away keeps serving its
  stale replica indefinitely.  Revocation is therefore *eventually*
  effective but has no time bound — exactly the weakness the paper's
  ``Te`` mechanism removes, and what the ``baselines`` experiment measures.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from ..core.acl import AccessControlList
from ..core.host import DecisionReason
from ..core.messages import (
    AclUpdate,
    SyncRequest,
    SyncResponse,
    UpdateAck,
    UpdateMsg,
)
from ..core.rights import Right
from ..sim.node import Address
from ..sim.trace import TraceKind
from .common import BaselineHost, BaselineManager, BaselineSystem

__all__ = ["FullReplicationManager", "FullReplicationHost", "FullReplicationSystem"]

#: Seconds between a recovering host's snapshot requests.
RESYNC_INTERVAL = 2.0
#: Seconds between a manager's re-sends of an unacked update.
RETRY_INTERVAL = 2.0


class FullReplicationHost(BaselineHost):
    """Holds a full ACL replica; every check is local."""

    def __init__(self, address: Address, applications: Sequence[str],
                 manager_addrs: Sequence[Address] = ()):
        super().__init__(address, manager_addrs)
        self.replicas: Dict[str, AccessControlList] = {
            app: AccessControlList(app) for app in applications
        }
        self._resynced = False

    def _local(self, application: str, user: str, right: Right):
        allowed = self.replicas[application].check(user, right)
        reason = DecisionReason.VERIFIED if allowed else DecisionReason.DENIED
        return allowed, reason, "local_replica"

    handlers = {UpdateMsg: "_on_update", SyncResponse: "_on_snapshot"}

    def _on_update(self, src: Address, message: UpdateMsg) -> None:
        update = message.update
        if update.application in self.replicas:
            self.replicas[update.application].apply(update.entry())
        self.send(src, UpdateAck(update_id=update.update_id, acker=self.address))

    def _on_snapshot(self, src: Address, message: SyncResponse) -> None:
        for application, entries in message.snapshots:
            if application in self.replicas:
                self.replicas[application].merge(entries)
        self._resynced = True

    def on_crash(self) -> None:
        """The replica is volatile; recovery resyncs it from a manager."""
        super().on_crash()
        for app in self.replicas:
            self.replicas[app] = AccessControlList(app)

    def on_recover(self) -> None:
        if self.managers:
            self._resynced = False
            self.spawn(self._resync(), name=f"{self.address}/fr-resync")

    def _resync(self):
        """Pull a full snapshot from any manager (retry until one answers)."""
        apps = tuple(sorted(self.replicas))
        index = 0
        while self.up and not self._resynced:
            manager = self.managers[index % len(self.managers)]
            index += 1
            self.send(manager, SyncRequest(requester=self.address, applications=apps))
            yield self.env.timeout(RESYNC_INTERVAL)


class FullReplicationManager(BaselineManager):
    """Disseminates every update to all managers and all hosts."""

    def __init__(
        self,
        address: Address,
        applications: Sequence[str],
        peers: Sequence[Address],
        host_addrs: Sequence[Address],
    ):
        super().__init__(address, applications)
        self.peers = tuple(p for p in peers if p != address)
        self.host_addrs = tuple(host_addrs)
        self._pending: Dict[str, Set[Address]] = {}

    def _issued(self, update: AclUpdate) -> None:
        self._pending[update.update_id] = set(self.peers) | set(self.host_addrs)
        self.spawn(self._disseminate(update), name=f"{self.address}/fr-update")

    def _disseminate(self, update: AclUpdate):
        message = UpdateMsg(update=update)
        pending = self._pending[update.update_id]
        while pending:
            if self.up:
                self.multicast(sorted(pending), message)
            yield self.env.timeout(RETRY_INTERVAL)
        self._pending.pop(update.update_id, None)
        self.network.tracer.publish(
            TraceKind.UPDATE_FULLY_PROPAGATED, self.address,
            update_id=update.update_id, application=update.application,
            elapsed=0.0,
        )

    handlers = {UpdateMsg: "_on_update", UpdateAck: "_on_ack", SyncRequest: "_on_sync"}

    def _on_update(self, src: Address, message: UpdateMsg) -> None:
        update = message.update
        if update.application in self.acls:
            self._counter = max(self._counter, update.version.counter)
            self.acls[update.application].apply(update.entry())
        self.send(src, UpdateAck(update_id=update.update_id, acker=self.address))

    def _on_ack(self, src: Address, ack: UpdateAck) -> None:
        pending = self._pending.get(ack.update_id)
        if pending is not None:
            pending.discard(ack.acker)

    def _on_sync(self, src: Address, message: SyncRequest) -> None:
        snapshots = tuple(
            (app, tuple(self.acls[app].snapshot()))
            for app in message.applications
            if app in self.acls
        )
        self.send(src, SyncResponse(responder=self.address, snapshots=snapshots))


class FullReplicationSystem(BaselineSystem):
    """A wired full-replication deployment."""

    def _build(self, host_addrs):
        managers = [
            FullReplicationManager(
                addr, self.applications, self.manager_addrs, host_addrs
            )
            for addr in self.manager_addrs
        ]
        hosts = [
            FullReplicationHost(addr, self.applications, self.manager_addrs)
            for addr in host_addrs
        ]
        return managers, hosts

    def _seed_entry(self, application: str, entry) -> None:
        super()._seed_entry(application, entry)
        for host in self.hosts:
            host.replicas[application].apply(entry)
