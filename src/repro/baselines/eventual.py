"""Baseline 3: eventual consistency (Samarati, Ammann & Jajodia [23]).

Section 4.2: "One other approach to authorization that deals with site
and communication failures in wide-area networks is described in [23].
Here, such events are dealt with by allowing changes in access control
information to be updated eventually when communication has been
resumed, with emphasis on eventual consistency.  In contrast with our
work, no guarantees are made on when the information will be updated."

Semantics implemented here (reconstructed from that description):

* Managers apply updates locally and converge via periodic
  anti-entropy: each gossip round, a manager pushes its full versioned
  ACL snapshot to one random peer; LWW merge guarantees convergence
  once partitions heal.
* An update call returns immediately — there is no quorum and no
  guarantee point.
* Hosts query any single manager and cache grants **without expiry**.
  Managers forward revocations to caching hosts (best-effort with
  retries), so caches are *eventually* flushed — but a partitioned
  host can honour a revoked right for unbounded time, which is exactly
  the contrast the paper draws.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from ..core.host import DecisionReason
from ..core.messages import (
    AclUpdate,
    QueryRequest,
    QueryResponse,
    RevokeNotify,
    RevokeNotifyAck,
    SyncResponse,
    Verdict,
)
from ..core.rights import Right
from ..protocols.messaging import ReplyTable, retry_until_acked
from ..sim.node import Address
from ..sim.trace import TraceKind
from .common import BaselineHost, BaselineManager, BaselineSystem

__all__ = ["EventualManager", "EventualHost", "EventualSystem"]

#: Seconds between re-sends of an unacked revocation notice.
REVOKE_RETRY_INTERVAL = 5.0


class EventualManager(BaselineManager):
    """Gossip-replicated manager with no timeliness guarantees."""

    te = float("inf")  # no expiry in this design

    def __init__(
        self,
        address: Address,
        applications: Sequence[str],
        peers: Sequence[Address],
        gossip_interval: float = 10.0,
    ):
        super().__init__(address, applications)
        self.peers = tuple(p for p in peers if p != address)
        self.gossip_interval = gossip_interval
        self._notifies = ReplyTable()
        # grant_table[app][(user, right)] -> set of host addresses
        self._grant_table: Dict[str, Dict[Tuple[str, Right], Set[Address]]] = {
            app: {} for app in applications
        }

    def attach(self, network) -> None:
        super().attach(network)
        if self.peers:
            self.spawn(self._gossip_loop(), name=f"{self.address}/gossip")

    def _gossip_loop(self):
        rng = self.network.rng
        while True:
            yield self.env.timeout(self.gossip_interval)
            if not self.up or not self.peers:
                continue
            peer = rng.choice(self.peers)
            snapshots = tuple(
                (app, tuple(acl.snapshot())) for app, acl in self.acls.items()
            )
            self.send(peer, SyncResponse(responder=self.address, snapshots=snapshots))

    # -- revocation forwarding -------------------------------------------------
    def _issued(self, update: AclUpdate) -> None:
        if not update.grant:
            self._forward_revocation(update)

    def _granted(self, src: Address, query: QueryRequest) -> None:
        holders = self._grant_table[query.application].setdefault(
            (query.user, query.right), set()
        )
        holders.add(src)

    def _forward_revocation(self, update: AclUpdate) -> None:
        holders = self._grant_table[update.application].pop(
            (update.user, update.right), set()
        )
        for host in holders:
            self.spawn(
                self._notify_host(host, update),
                name=f"{self.address}/ec-revoke:{host}",
            )

    def _notify_host(self, host: Address, update: AclUpdate):
        """Retry forever — "eventually" is the only guarantee."""
        acked = self.env.event()
        notify_id = self._notifies.allocate(lambda ack: acked.succeed())
        message = RevokeNotify(
            application=update.application,
            user=update.user,
            right=update.right,
            version=update.version,
            notify_id=notify_id,
        )

        def trace_forwarded() -> None:
            self.network.tracer.publish(
                TraceKind.REVOKE_FORWARDED, self.address,
                host=host, application=update.application, user=update.user,
            )

        try:
            yield from retry_until_acked(
                self, host, message, REVOKE_RETRY_INTERVAL, acked,
                on_sent=trace_forwarded,
            )
        finally:
            self._notifies.discard(notify_id)

    # -- messages -------------------------------------------------------------
    handlers = {
        **BaselineManager.handlers,
        SyncResponse: "_on_gossip",
        RevokeNotifyAck: "_on_notify_ack",
    }

    def _on_gossip(self, src: Address, message: SyncResponse) -> None:
        for application, entries in message.snapshots:
            acl = self.acls.get(application)
            if acl is None:
                continue
            newly_revoked = [
                e for e in entries
                if not e.granted and acl.apply(e)
            ]
            acl.merge(e for e in entries if e.granted)
            for entry in newly_revoked:
                self._forward_revocation(
                    AclUpdate(
                        update_id=f"gossip:{entry.version}",
                        application=application,
                        user=entry.user,
                        right=entry.right,
                        grant=False,
                        version=entry.version,
                        origin=message.responder,
                    )
                )
            for entry in entries:
                self._counter = max(self._counter, entry.version.counter)

    def _on_notify_ack(self, src: Address, ack: RevokeNotifyAck) -> None:
        self._notifies.dispatch(ack.notify_id, ack)


class EventualHost(BaselineHost):
    """Caches grants forever; trusts any single manager."""

    def __init__(self, address: Address, managers: Sequence[Address]):
        super().__init__(address, managers)
        # cache[app] -> set of (user, right) believed granted
        self._cache: Dict[str, Set[Tuple[str, Right]]] = {}
        self.stats["cache_hits"] = 0

    def _local(self, application: str, user: str, right: Right):
        if (user, right) in self._cache.setdefault(application, set()):
            self.stats["cache_hits"] += 1
            return True, DecisionReason.CACHE, "cache"
        return None

    def _remember(self, application: str, user: str, right: Right,
                  reply: QueryResponse, sent_local: float) -> None:
        cache = self._cache.get(application)  # None once a crash wiped it
        if cache is not None and reply.verdict == Verdict.GRANT:
            cache.add((user, right))

    handlers = {**BaselineHost.handlers, RevokeNotify: "_on_revoke"}

    def _on_revoke(self, src: Address, notify: RevokeNotify) -> None:
        cache = self._cache.setdefault(notify.application, set())
        cache.discard((notify.user, notify.right))
        self.network.tracer.publish(
            TraceKind.CACHE_FLUSHED, self.address,
            application=notify.application, user=notify.user, removed=1,
        )
        self.send(src, RevokeNotifyAck(notify_id=notify.notify_id, host=self.address))

    def on_crash(self) -> None:
        super().on_crash()
        self._cache.clear()


class EventualSystem(BaselineSystem):
    """A wired eventual-consistency deployment."""

    def __init__(self, *args, gossip_interval: float = 10.0, **kwargs):
        self.gossip_interval = gossip_interval
        super().__init__(*args, **kwargs)

    def _build(self, host_addrs):
        managers = [
            EventualManager(
                addr,
                self.applications,
                self.manager_addrs,
                gossip_interval=self.gossip_interval,
            )
            for addr in self.manager_addrs
        ]
        hosts = [EventualHost(addr, self.manager_addrs) for addr in host_addrs]
        return managers, hosts
