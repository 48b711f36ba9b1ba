"""Manager side of the access control protocol.

A manager (Section 2.2) "is an application level entity that issues
commands to change access rights"; the access-control-management
component on a manager host "stores the local copy of the current
access control list".  This class is the :class:`~repro.sim.node.
Node` shell — state, message dispatch, the Section 2.3 entry points,
and Section 3.4's crash recovery (stable-store reload, then peer resync
before answering again) — while the protocol machinery with more than
one variant lives in :mod:`repro.protocols`:

* update dissemination and the quorum vs freeze alternatives of
  Section 3.3 — :mod:`repro.protocols.dissemination`;
* revocation forwarding to caching hosts (Sections 3.1 and 3.4) —
  :mod:`repro.protocols.revocation`;
* delegated administration (the *manage* right) —
  :mod:`repro.protocols.admin`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

from ..auth.identity import Authenticator, Principal, SignedMessage
from ..protocols.admin import AdminService
from ..protocols.dissemination import PendingUpdate, dissemination_strategy_for
from ..protocols.messaging import ReplyTable
from ..protocols.query import GrantTable, QueryAnswerer
from ..protocols.revocation import RevocationForwarder
from ..sim.engine import Event
from ..sim.node import Address, Node
from ..sim.storage import StableStore
from ..sim.trace import TraceKind
from .acl import AccessControlList, AclBatch
from .ids import Interner
from .messages import (
    AclUpdate,
    AdminRequest,
    Ping,
    Pong,
    QueryRequest,
    RevokeNotifyAck,
    SyncRequest,
    SyncResponse,
    UpdateAck,
    UpdateMsg,
)
from .policy import AccessPolicy
from .rights import AclEntry, Right, well_formed

__all__ = ["AccessControlManager", "UpdateHandle"]


@dataclass(frozen=True)
class UpdateHandle:
    """Returned by ``add``/``revoke``: events to wait on.

    ``quorum`` fires when the update quorum is reached (the paper's
    blocking-return point); ``complete`` fires when every manager has
    acked.
    """

    update: AclUpdate
    quorum: Event
    complete: Event


class AccessControlManager(Node):
    """One member of ``Managers(A)`` for one or more applications."""

    def __init__(self, address: Address, policy: AccessPolicy,
                 principal: Principal = None,
                 store: StableStore = None,
                 admin_authenticator: Authenticator = None,
                 interner: Interner = None):
        super().__init__(address)
        #: Shared user-name interner backing this manager's ACL columns
        #: (private when omitted; system-wide for mega populations).
        self._ids = interner if interner is not None else Interner()
        self.default_policy = policy
        #: When set, query responses are signed with this identity so
        #: hosts in Byzantine mode can authenticate them (footnote 2).
        self.principal = principal
        #: host -> (key_id, key): the pairwise key each host last offered
        #: for tagging its answers (:mod:`repro.protocols.query`).
        self._host_keys: Dict[Address, Tuple[int, bytes]] = {}
        self.rejected_key_offers = 0
        #: ACL entries dropped at ingress (peer update, resync snapshot,
        #: stable store) for failing :func:`~repro.core.rights.well_formed`.
        self.rejected_entries = 0
        #: Peer traffic refused for its source: an update, ack or sync
        #: message from outside the application's manager group, a
        #: Ping/Pong from outside every group, an ack naming another acker.
        self.rejected_sources = 0
        #: Explicit stable storage.  When provided, in-memory ACL state
        #: is lost on crash and reloaded from here on recovery; when
        #: None, memory itself is treated as stable (the paper's
        #: implicit assumption).
        self.store = store
        #: When set, AdminRequests must arrive signed by the claimed
        #: manager-user.
        self.admin_authenticator = admin_authenticator
        self.admin_requests_rejected = 0
        self.acls: Dict[str, AccessControlList] = {}
        self._peers: Dict[str, Tuple[Address, ...]] = {}
        self._counter = 0
        self._update_ids = itertools.count(1)
        # grant_table[app]: for each (user, right), the hosts granted to, in
        # first-grant order, each with the real-time deadline its cached
        # copy expires by (packed columns keyed by interned id).
        self._grant_table: Dict[str, GrantTable] = {}
        self._pending_updates: Dict[str, PendingUpdate] = {}
        #: notify id -> the ack callback of a RevokeNotify still retrying.
        self._notifies = ReplyTable()
        self._synced_peers: Set[Address] = set()
        self._last_heard: Dict[Address, float] = {}
        self._frozen_apps: Set[str] = set()  # for trace edges only
        self.recovering = False
        self.revocation = RevocationForwarder()
        self.admin = AdminService()
        self.answerer = QueryAnswerer()
        self.stats = {"queries": 0, "grants": 0, "denials": 0, "silent": 0}

    # -- configuration --------------------------------------------------------
    def manage(self, application: str, manager_set: Sequence[Address]) -> None:
        """Declare this manager a member of ``Managers(application)``.

        ``manager_set`` is the full set (it must contain this manager's
        own address).
        """
        if self.address not in manager_set:
            raise ValueError(
                f"{self.address!r} is not in the manager set for {application!r}"
            )
        self._peers[application] = tuple(
            m for m in manager_set if m != self.address
        )
        self.acls.setdefault(
            application, AccessControlList(application, self._ids)
        )
        self._grant_table.setdefault(application, GrantTable(self._ids))

    def policy_for(self, application: str) -> AccessPolicy:
        """The cell's one policy (every application shares it)."""
        return self.default_policy

    def acl(self, application: str) -> AccessControlList:
        try:
            return self.acls[application]
        except KeyError:
            raise KeyError(
                f"{self.address!r} does not manage {application!r}"
            ) from None

    def bootstrap(
        self, application: str, entries: Union[AclBatch, Iterable[AclEntry]]
    ) -> None:
        """Pre-populate the ACL (experiment setup, not the protocol).

        One bulk write (:meth:`AccessControlList.load`): the result, the
        version counter and any stable-store writes are exactly those of
        applying ``entries`` one at a time.  Callers hand over a whole
        batch per application, ideally as an :class:`AclBatch`.
        """
        batch = entries if type(entries) is AclBatch else AclBatch.of(entries)
        if not len(batch):
            return
        stored = self.acl(application).load(batch)
        if self.store is not None:
            counter, seen = self._counter, 0
            for at in stored:  # ascending
                counter = max(counter, *batch.counters[seen:at + 1])
                seen = at + 1
                entry = batch[at]
                self.store.write(
                    f"acl:{application}:{entry.user}:{entry.right.value}", entry
                )
                self.store.write("counter", counter)
        self._counter = max(self._counter, max(batch.counters))

    def _apply_entry(self, application: str, entry: AclEntry) -> bool:
        """Apply an entry to the ACL and persist it to stable storage."""
        applied = self.acl(application).apply(entry)
        if applied and self.store is not None:
            self.store.write(
                f"acl:{application}:{entry.user}:{entry.right.value}", entry
            )
            self.store.write("counter", max(self._counter, entry.version.counter))
        return applied

    # -- wiring --------------------------------------------------------------------
    def attach(self, network) -> None:
        super().attach(network)
        now = self.env.now
        peers = {p for ps in self._peers.values() for p in ps}
        for peer in peers:
            self._last_heard.setdefault(peer, now)
        for application in self._peers:
            policy = self.policy_for(application)
            strategy = dissemination_strategy_for(policy)
            for name, process in strategy.monitors(self, application, policy):
                self.spawn(process, name=name)

    # -- the operations of Section 2.3 -----------------------------------------------
    def add(self, application: str, user: str, right: Right = Right.USE) -> UpdateHandle:
        """``Add(A, U, R)`` — grant ``right`` to ``user``."""
        return self._issue(application, user, right, grant=True)

    def revoke(
        self, application: str, user: str, right: Right = Right.USE
    ) -> UpdateHandle:
        """``Revoke(A, U, R)`` — remove ``right`` from ``user``."""
        return self._issue(application, user, right, grant=False)

    def _issue(
        self, application: str, user: str, right: Right, grant: bool
    ) -> UpdateHandle:
        strategy = dissemination_strategy_for(self.policy_for(application))
        return strategy.issue(self, application, user, right, grant)

    # -- query answering ---------------------------------------------------------------
    def _answer_query(self, src: Address, request: QueryRequest) -> None:
        self.answerer.answer(self, src, request)

    def _is_frozen(self, application: str, policy: AccessPolicy) -> bool:
        """Has any peer been unreachable for longer than ``Ti``?"""
        return dissemination_strategy_for(policy).is_frozen(
            self, application, policy
        )

    # -- message handling ----------------------------------------------------------------
    handlers = {
        (SignedMessage, AdminRequest): "_on_signed_admin",
        AdminRequest: "_on_admin",
        QueryRequest: "_answer_query",
        UpdateMsg: "_handle_update",
        UpdateAck: "_handle_update_ack",
        RevokeNotifyAck: "_on_notify_ack",
        SyncRequest: "_on_sync_request",
        SyncResponse: "_on_sync_response",
        Ping: "_on_ping",
        Pong: "_on_pong",
    }

    def _on_signed_admin(self, src: Address, message: SignedMessage) -> None:
        request = message.payload
        if self.admin_authenticator is not None and (
            not self.admin_authenticator.authenticate(message)
            or message.signature.signer != request.admin
        ):
            self.admin_requests_rejected += 1
            self.admin.reject(self, src, request, "authentication failed")
        else:
            self.admin.handle_request(self, src, request)

    def _on_admin(self, src: Address, request: AdminRequest) -> None:
        if self.admin_authenticator is not None:
            # Signatures required but the request arrived bare.
            self.admin_requests_rejected += 1
            self.admin.reject(self, src, request, "unsigned request")
        else:
            self.admin.handle_request(self, src, request)

    def _on_notify_ack(self, src: Address, ack: RevokeNotifyAck) -> None:
        self._notifies.dispatch(ack.notify_id, ack)

    def _from_peer(self, src: Address, application: str) -> bool:
        """Is ``src`` in ``application``'s manager group?  Counts a refusal."""
        if src in self._peers[application]:
            return True
        self.rejected_sources += 1
        return False

    def _from_any_peer(self, src: Address) -> bool:
        if any(src in peers for peers in self._peers.values()):
            return True
        self.rejected_sources += 1
        return False

    def _on_sync_request(self, src: Address, message: SyncRequest) -> None:
        if not all(self._from_peer(src, app) for app in message.applications
                   if app in self.acls):
            return
        snapshots = tuple(
            (app, tuple(self.acls[app].snapshot()))
            for app in message.applications
            if app in self.acls
        )
        self.send(src, SyncResponse(responder=self.address, snapshots=snapshots))

    def _on_sync_response(self, src: Address, message: SyncResponse) -> None:
        """Merge a peer's snapshot; a malformed entry is dropped and
        counted in ``rejected_entries``."""
        if not all(self._from_peer(src, application) for application, _ in message.snapshots
                   if type(application) is str and application in self.acls):
            return
        for application, entries in message.snapshots:
            if type(application) is str and application in self.acls:
                for entry in entries:
                    if not well_formed(entry):
                        self.rejected_entries += 1
                        continue
                    self._apply_entry(application, entry)
                    self._counter = max(self._counter, entry.version.counter)
        self._synced_peers.add(message.responder)

    def _on_ping(self, src: Address, ping: Ping) -> None:
        if not self._from_any_peer(src):
            return
        self._last_heard[src] = self.env.now
        self.send(src, Pong(nonce=ping.nonce, sender=self.address))

    def _on_pong(self, src: Address, pong: Pong) -> None:
        if self._from_any_peer(src):
            self._last_heard[src] = self.env.now

    def _handle_update(self, src: Address, message: UpdateMsg) -> None:
        update = message.update
        entry = update.entry() if type(update) is AclUpdate else None
        if not (
            well_formed(entry)
            and type(update.update_id) is str
            and type(update.application) is str
            and type(update.origin) is str
        ):
            self.rejected_entries += 1
            return
        if update.application not in self.acls or not self._from_peer(src, update.application):
            return
        self._counter = max(self._counter, update.version.counter)
        applied = self._apply_entry(update.application, entry)
        # Ack regardless of novelty: re-deliveries must also be acked.
        self.send(src, UpdateAck(update_id=update.update_id, acker=self.address))
        if applied and not update.grant:
            # "if the operation is a revocation, the manager forwards it
            # to all hosts to which it has granted access" — each
            # manager covers the hosts in its *own* grant table.
            self.revocation.forward(self, update)

    def _handle_update_ack(self, src: Address, message: UpdateAck) -> None:
        if message.acker != src:
            self.rejected_sources += 1
            return
        pending = self._pending_updates.get(message.update_id)
        if pending is None or not self._from_peer(src, pending.update.application):
            return
        policy = self.policy_for(pending.update.application)
        dissemination_strategy_for(policy).on_ack(self, pending, message.acker)

    # -- recovery (Section 3.4) -------------------------------------------------------------
    def on_crash(self) -> None:
        """The grant table, liveness estimates and hosts' pairwise keys
        are volatile; the ACL survives — implicitly (no store) or on the
        explicit store, in which case the in-memory copy is genuinely
        lost here."""
        for table in self._grant_table.values():
            table.clear()
        self._notifies.clear()
        self._host_keys.clear()
        if self.store is not None:
            for application in list(self.acls):
                self.acls[application] = AccessControlList(
                    application, self._ids
                )

    def on_recover(self) -> None:
        """Reload from stable storage, then resync from peers before
        answering queries again."""
        if self.store is not None:
            self.reload_from_store()
        peers = sorted({p for ps in self._peers.values() for p in ps})
        now = self.env.now
        for peer in peers:
            self._last_heard[peer] = now  # restart freeze bookkeeping
        if not peers:
            return
        self.recovering = True
        self._synced_peers.clear()
        self.spawn(self._resync(peers), name=f"{self.address}/resync")

    def reload_from_store(self) -> None:
        """Rebuild the in-memory ACLs from the explicit stable store; a
        malformed entry is dropped and counted in ``rejected_entries``."""
        assert self.store is not None
        for key in self.store.keys("acl:"):
            entry = self.store.read(key)
            if not well_formed(entry):
                self.rejected_entries += 1
                continue
            application = key.split(":", 2)[1]
            if application in self.acls:
                self.acls[application].apply(entry)
        self._counter = max(self._counter, self.store.read("counter", 0))

    def _resync(self, peers: List[Address]):
        """Multicast SyncRequests until some peer's snapshot merges,
        staying silent (``recovering``) the whole time."""
        apps, timeout = tuple(sorted(self.acls)), self.default_policy.query_timeout
        while self.up and self.recovering and not self._synced_peers:
            self.multicast(peers, SyncRequest(requester=self.address, applications=apps))
            yield self.env.timeout(timeout)
        if self._synced_peers and self.up:
            self.recovering = False
            tracer = self.tracer
            if tracer.wants(TraceKind.MANAGER_RESYNCED):
                tracer.publish(
                    TraceKind.MANAGER_RESYNCED, self.address, peers=len(self._synced_peers)
                )
            else:
                tracer.bump(TraceKind.MANAGER_RESYNCED)

    # -- plumbing ------------------------------------------------------------------------------
    @property
    def tracer(self):
        return self.network.tracer
