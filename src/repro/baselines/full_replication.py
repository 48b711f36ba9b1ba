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

import itertools
from typing import Any, Dict, Sequence, Set

from ..core.acl import AccessControlList
from ..core.host import AccessDecision, DecisionReason
from ..core.messages import (
    AclUpdate,
    SyncRequest,
    SyncResponse,
    UpdateAck,
    UpdateMsg,
)
from ..core.rights import Right, Version, hlc_counter
from ..sim.node import Address, Node
from ..sim.trace import TraceKind
from .common import BaselineSystem

__all__ = ["FullReplicationManager", "FullReplicationHost", "FullReplicationSystem"]


class FullReplicationHost(Node):
    """Holds a full ACL replica; every check is local."""

    def __init__(self, address: Address, applications: Sequence[str],
                 manager_addrs: Sequence[Address] = (),
                 resync_interval: float = 2.0):
        super().__init__(address)
        self.replicas: Dict[str, AccessControlList] = {
            app: AccessControlList(app) for app in applications
        }
        self.manager_addrs = tuple(manager_addrs)
        self.resync_interval = resync_interval
        self._resynced = False
        self.stats = {"checks": 0, "allowed": 0, "denied": 0}

    def check_access(self, application: str, user: str, right: Right = Right.USE):
        """Local decision; still a generator for workload compatibility."""
        self.stats["checks"] += 1
        replica = self.replicas[application]
        allowed = replica.check(user, right)
        self.stats["allowed" if allowed else "denied"] += 1
        kind = TraceKind.ACCESS_ALLOWED if allowed else TraceKind.ACCESS_DENIED
        self.network.tracer.publish(
            kind, self.address, application=application, user=user,
            reason="local_replica", attempts=0, latency=0.0,
        )
        return AccessDecision(
            application=application,
            user=user,
            right=right,
            allowed=allowed,
            reason=DecisionReason.VERIFIED if allowed else DecisionReason.DENIED,
            attempts=0,
            responses=0,
            latency=0.0,
        )
        yield  # pragma: no cover - makes this a generator

    def request_access(self, application: str, user: str, right: Right = Right.USE):
        return self.env.process(self.check_access(application, user, right))

    def handle_message(self, src: Address, message: Any) -> None:
        if isinstance(message, UpdateMsg):
            update = message.update
            if update.application in self.replicas:
                self.replicas[update.application].apply(update.entry())
            self.send(src, UpdateAck(update_id=update.update_id, acker=self.address))
        elif isinstance(message, SyncResponse):
            for application, entries in message.snapshots:
                if application in self.replicas:
                    self.replicas[application].merge(entries)
            self._resynced = True

    def on_crash(self) -> None:
        """The replica is volatile; recovery resyncs it from a manager."""
        for app, replica in self.replicas.items():
            self.replicas[app] = AccessControlList(app)

    def on_recover(self) -> None:
        if self.manager_addrs:
            self._resynced = False
            self.spawn(self._resync(), name=f"{self.address}/fr-resync")

    def _resync(self):
        """Pull a full snapshot from any manager (retry until one answers)."""
        apps = tuple(sorted(self.replicas))
        index = 0
        while self.up and not self._resynced:
            manager = self.manager_addrs[index % len(self.manager_addrs)]
            index += 1
            self.send(manager, SyncRequest(requester=self.address, applications=apps))
            yield self.env.timeout(self.resync_interval)


class FullReplicationManager(Node):
    """Disseminates every update to all managers and all hosts."""

    def __init__(
        self,
        address: Address,
        applications: Sequence[str],
        peers: Sequence[Address],
        host_addrs: Sequence[Address],
        retry_interval: float = 2.0,
    ):
        super().__init__(address)
        self.acls: Dict[str, AccessControlList] = {
            app: AccessControlList(app) for app in applications
        }
        self.peers = tuple(p for p in peers if p != address)
        self.host_addrs = tuple(host_addrs)
        self.retry_interval = retry_interval
        self._counter = 0
        self._update_ids = itertools.count(1)
        self._pending: Dict[str, Set[Address]] = {}
        self.recovering = False  # workload-compatibility flag

    def add(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=True)

    def revoke(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=False)

    def _issue(self, application: str, user: str, right: Right, grant: bool):
        current = self.acls[application].version_of(user, right)
        self._counter = hlc_counter(
            self.env.now, max(self._counter, current.counter)
        )
        update = AclUpdate(
            update_id=f"{self.address}:{next(self._update_ids)}",
            application=application,
            user=user,
            right=right,
            grant=grant,
            version=Version(self._counter, self.address),
            origin=self.address,
        )
        self.acls[application].apply(update.entry())
        self.network.tracer.publish(
            TraceKind.UPDATE_ISSUED, self.address,
            application=application, user=user, grant=grant,
            update_id=update.update_id,
        )
        targets = set(self.peers) | set(self.host_addrs)
        self._pending[update.update_id] = targets
        self.spawn(self._disseminate(update), name=f"{self.address}/fr-update")
        return update

    def _disseminate(self, update: AclUpdate):
        message = UpdateMsg(update=update)
        pending = self._pending[update.update_id]
        while pending:
            if self.up:
                self.multicast(sorted(pending), message)
            yield self.env.timeout(self.retry_interval)
        self._pending.pop(update.update_id, None)
        self.network.tracer.publish(
            TraceKind.UPDATE_FULLY_PROPAGATED, self.address,
            update_id=update.update_id, application=update.application,
            elapsed=0.0,
        )

    def handle_message(self, src: Address, message: Any) -> None:
        if isinstance(message, UpdateMsg):
            update = message.update
            if update.application in self.acls:
                self._counter = max(self._counter, update.version.counter)
                self.acls[update.application].apply(update.entry())
            self.send(src, UpdateAck(update_id=update.update_id, acker=self.address))
        elif isinstance(message, UpdateAck):
            pending = self._pending.get(message.update_id)
            if pending is not None:
                pending.discard(message.acker)
        elif isinstance(message, SyncRequest):
            snapshots = tuple(
                (app, tuple(self.acls[app].snapshot()))
                for app in message.applications
                if app in self.acls
            )
            self.send(src, SyncResponse(responder=self.address, snapshots=snapshots))


class FullReplicationSystem(BaselineSystem):
    """A wired full-replication deployment."""

    def _build(self, n_managers: int, n_hosts: int) -> None:
        host_addrs = tuple(f"h{i}" for i in range(n_hosts))
        for addr in self.manager_addrs:
            manager = FullReplicationManager(
                addr, self.applications, self.manager_addrs, host_addrs
            )
            self.network.register(manager)
            self.managers.append(manager)
        for addr in host_addrs:
            host = FullReplicationHost(
                addr, self.applications, manager_addrs=self.manager_addrs
            )
            self.network.register(host)
            self.hosts.append(host)

    def _seed_entry(self, application: str, entry) -> None:
        for manager in self.managers:
            manager.acls[application].apply(entry)
        for host in self.hosts:
            host.replicas[application].apply(entry)
