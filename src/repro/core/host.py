"""Application-host side of the access control protocol.

This module implements the *Access Control* and *Access Control
Management* components of Figure 1 as they exist on a host running the
application.  The protocol logic itself lives in
:mod:`repro.protocols`: :class:`~repro.protocols.VerificationPipeline`
runs the cached-check algorithm of Figures 2 and 3 (and Figure 4's
default-allow rule) with the query planner and response combiner that
the application's :class:`~repro.core.policy.AccessPolicy` selects.
This class is the :class:`~repro.sim.node.Node` shell: per-host state
(caches, pending-reply tables, stats), message dispatch, the Figure 3
expiry stamp (:meth:`AccessControlHost._expiry_limit`), the background
cache sweep and refresh-ahead loops, and crash/recovery behaviour
(Section 3.4: on recovery "ACL_cache(A) can simply be initialized to
null").

The optional extensions are switched on by :class:`~repro.core.policy.
AccessPolicy`: refresh-ahead runs here, negative caching in the
pipeline, and Byzantine ``f + 1`` vouching (footnote 2) is a combiner in
:mod:`repro.protocols`.

The central entry point is :meth:`AccessControlHost.check_access`, a
process generator that resolves to an :class:`AccessDecision`::

    decision_proc = env.process(host.check_access("stocks", "alice"))
    env.run()
    assert decision_proc.value.allowed
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Optional, Sequence, Set, Tuple

from ..auth.identity import Authenticator, SignedMessage
from ..auth.signatures import PAIRWISE_KEY_BYTES, Tag, check_tag, key_fingerprint
from ..protocols.decision import AccessDecision, DecisionReason
from ..protocols.messaging import ReplyTable
from ..protocols.pipeline import VerificationPipeline
from ..sim.clock import LocalClock
from ..sim.node import Address, Node
from ..sim.trace import TraceKind
from .cache import ACLCache, CacheEntry
from .ids import Interner, pack_key
from .messages import QueryResponse, RevokeNotify, RevokeNotifyAck
from .policy import AccessPolicy, DeltaMode
from .rights import Right

__all__ = ["AccessControlHost", "AccessDecision", "DecisionReason"]


class AccessControlHost(Node):
    """A host in ``Hosts(A)`` running the cached access-control check.

    Parameters
    ----------
    address:
        Network address of this host.
    policy:
        The cell's :class:`~repro.core.policy.AccessPolicy`; one policy
        instance governs every application served by this host.
    managers:
        Static map ``application -> manager addresses``.
    clock:
        The host's drifting local clock; created on attach if None
        (rate 1.0).
    manager_authenticator:
        When set, manager responses must arrive as
        :class:`~repro.auth.SignedMessage` signed by the responding
        manager — or tagged by it under the pairwise key this host
        generated for it (:meth:`key_offer`); unsigned or forged
        responses are discarded.
    interner:
        Shared user-name interner backing this host's caches and deny
        table; a private one is created when omitted.  Mega-population
        systems pass one system-wide interner so principal names are
        never duplicated per node.
    shard_router:
        Optional :class:`~repro.protocols.sharding.ShardRouter`; when
        set, applications not statically configured resolve to their
        owning manager group through the ring.
    """

    def __init__(
        self,
        address: Address,
        policy: AccessPolicy,
        managers: Optional[Dict[str, Sequence[Address]]] = None,
        clock: Optional[LocalClock] = None,
        manager_authenticator: Optional[Authenticator] = None,
        interner: Optional[Interner] = None,
        shard_router=None,
    ):
        super().__init__(address)
        self.default_policy = policy
        self._static_managers: Dict[str, Tuple[Address, ...]] = {
            app: tuple(addrs) for app, addrs in (managers or {}).items()
        }
        self.clock = clock
        self.manager_authenticator = manager_authenticator
        self._ids = interner if interner is not None else Interner()
        self.shard_router = shard_router
        self.caches: Dict[str, ACLCache] = {}
        # Negative cache: (app, packed (uid, right) key) -> local expiry.
        self._deny_cache: Dict[Tuple[str, int], float] = {}
        self._pending_queries = ReplyTable()
        # Query-round rotation, and the managers that let a batch timer
        # fire and have not been heard from since (asked last; see
        # :mod:`repro.protocols.planner`).  An ordering hint only.
        self._rounds = itertools.count()
        self._silent: Set[Address] = set()
        self._incarnation = 0
        self.rejected_manager_signatures = 0
        self.late_manager_responses = 0
        #: Answers and revocation notices refused because their sender
        #: is not a manager of the application (ROADMAP 1(c)).
        self.rejected_sources = 0
        # manager -> (key, key_id, wrapped key): the pairwise key this
        # host generated for that manager's answers; and the managers it
        # has been sent to that have not answered with RSA since.
        self._answer_keys: Dict[Address, Tuple[bytes, int, int]] = {}
        self._offered: Set[Address] = set()
        self.pipeline = VerificationPipeline(self)
        # counters for quick inspection (metrics use the tracer)
        self.stats = {
            "checks": 0,
            "allowed": 0,
            "denied": 0,
            "default_allowed": 0,
            "deny_cache_hits": 0,
            "refreshes": 0,
        }

    # -- configuration ----------------------------------------------------------
    def policy_for(self, application: str) -> AccessPolicy:
        """The cell's one policy (every application shares it)."""
        return self.default_policy

    def manager_addrs_for(self, application: str) -> Tuple[Address, ...]:
        """``Managers(application)``: the static map, else the shard
        router's group, else empty (the check ends ``NO_MANAGERS``)."""
        static = self._static_managers.get(application)
        if static:
            return static
        if self.shard_router is not None:
            return self.shard_router.group_for(application)
        return ()

    def cache_for(self, application: str) -> ACLCache:
        """This host's ``ACL_cache(A)`` (created on first use)."""
        cache = self.caches.get(application)
        if cache is None:
            cache = ACLCache(application, self._ids)
            self.caches[application] = cache
        return cache

    # -- deny-cache keys --------------------------------------------------------
    def _deny_key(self, application: str, user: str, right: Right) -> Tuple[str, int]:
        """Deny-cache key for a write path (interns the user)."""
        return (application, pack_key(self._ids.intern(user), right.index))

    def _deny_probe(
        self, application: str, user: str, right: Right
    ) -> Optional[Tuple[str, int]]:
        """Deny-cache key for a read path; None if the user is unknown
        (an unknown user cannot have a cached denial, and read probes
        must not grow the interner)."""
        uid = self._ids.get(user)
        if uid is None:
            return None
        return (application, pack_key(uid, right.index))

    # -- wiring ---------------------------------------------------------------------
    def attach(self, network) -> None:
        super().attach(network)
        if self.clock is None:
            self.clock = LocalClock(self.env)
        if self.default_policy.cache_cleanup_interval is not None:
            self.spawn(self._cleanup_loop(), name=f"{self.address}/cache-cleanup")
        if self.default_policy.refresh_ahead_fraction is not None:
            self.spawn(self._refresh_loop(), name=f"{self.address}/refresh-ahead")

    # -- background cache upkeep -----------------------------------------------
    def _cleanup_loop(self):
        """Periodic sweep of expired cache and deny-cache entries: the
        caches shed expired entries lazily on probe (Section 3.2), and
        this reclaims the ones nobody probes."""
        interval = self.default_policy.cache_cleanup_interval
        while True:
            yield self.env.timeout(interval)
            if not self.up:
                continue
            now_local = self.clock.now()
            for cache in self.caches.values():
                cache.purge_expired(now_local)
            stale = [key for key, limit in self._deny_cache.items() if now_local >= limit]
            for key in stale:
                del self._deny_cache[key]

    def _refresh_loop(self):
        """Refresh-ahead (extension): an entry whose remaining local
        lifetime is below ``refresh_ahead_fraction * te`` is re-verified
        in the background so the next user access stays a cache hit."""
        interval = self.default_policy.refresh_check_interval
        while True:
            yield self.env.timeout(interval)
            if not self.up:
                continue
            for application, cache in self.caches.items():
                app_policy = self.policy_for(application)
                fraction = app_policy.refresh_ahead_fraction
                if fraction is None:
                    continue
                threshold = fraction * app_policy.te_local
                now_local = self.clock.now()
                for entry in cache.entries():
                    remaining = entry.limit - now_local
                    if 0 < remaining < threshold:
                        self.stats["refreshes"] += 1
                        self.spawn(
                            self._refresh_entry(application, entry),
                            name=f"{self.address}/refresh:{entry.user}",
                        )

    def _refresh_entry(self, application: str, entry: CacheEntry):
        policy = self.policy_for(application)
        yield from self.pipeline.verify(
            application, entry.user, entry.right, policy, self._incarnation
        )

    # -- message handling -----------------------------------------------------------
    handlers = {
        (SignedMessage, QueryResponse): "_on_signed_response",
        QueryResponse: "_on_response",
        RevokeNotify: "_handle_revoke",
    }

    def _from_manager(
        self, src: Address, application: str, named: Optional[Address] = None
    ) -> bool:
        """Is ``src`` in ``Managers(application)`` (and the manager an
        answer names, when ``named`` is given)?  Counts a refusal."""
        if (named is None or src == named) and src in self.manager_addrs_for(application):
            return True
        self.rejected_sources += 1
        return False

    def _on_signed_response(self, src: Address, message: SignedMessage) -> None:
        response = message.payload
        if response.query_id not in self._pending_queries:
            # ``dispatch`` would drop it whatever the signature says, so
            # do not pay an RSA verify to find that out.
            self._late_response(src, response)
        elif self.manager_authenticator is not None and not self._authentic(message):
            self.rejected_manager_signatures += 1
        else:
            self._accept_response(src, response)  # authentic, or signatures not in use

    def _on_response(self, src: Address, response: QueryResponse) -> None:
        if self.manager_authenticator is not None:
            # Signatures required but this response is bare: discard.
            self.rejected_manager_signatures += 1
        elif response.query_id not in self._pending_queries:
            self._late_response(src, response)
        else:
            self._accept_response(src, response)

    def _late_response(self, src: Address, response: QueryResponse) -> None:
        """The round already has its quorum, or timed out: the paper's
        "only accepting access control messages if they arrive before a
        timeout of a timer set at the time the query ... was sent."  A
        late answer from the manager it names still says that manager is
        no longer silent."""
        self.late_manager_responses += 1
        if self._from_manager(src, response.application, response.manager):
            self._silent.discard(src)

    def _accept_response(self, src: Address, response: QueryResponse) -> None:
        """An answer in time: to its round, if the manager it names sent it."""
        if self._from_manager(src, response.application, response.manager):
            self._silent.discard(src)
            self._pending_queries.dispatch(response.query_id, response)

    def key_offer(self, manager: Address) -> Tuple[int, int]:
        """``(key_id, wrapped_key)`` for a query to ``manager``.

        The key is generated here, once per manager, and travels wrapped
        under the manager's public key in the first query after that —
        and after every RSA-signed answer, which says the manager does
        not hold it.  ``(0, 0)``, and answers stay RSA-signed, when
        signatures are not in use or that public key is unknown or too
        small to carry a key.
        """
        authenticator = self.manager_authenticator
        if authenticator is None:
            return 0, 0
        entry = self._answer_keys.get(manager)
        if entry is None:
            public = authenticator.key_of(manager)
            if public is None:
                return 0, 0
            key = os.urandom(PAIRWISE_KEY_BYTES)
            try:
                entry = (key, key_fingerprint(key), public.wrap(key))
            except ValueError:  # a toy modulus, too small to carry a key
                return 0, 0
            self._answer_keys[manager] = entry
        if manager in self._offered:
            return entry[1], 0
        self._offered.add(manager)
        return entry[1], entry[2]

    def _authentic(self, message: SignedMessage) -> bool:
        """Did ``payload.manager`` itself make this answer?  A tag says so
        only under the key this host generated for that manager; its RSA
        signature always does, and asks for that key to be offered again."""
        proof, manager = message.signature, message.payload.manager
        if type(proof) is Tag:
            entry = self._answer_keys.get(manager)
            return (
                entry is not None
                and proof.signer == manager
                and proof.key_id == entry[1]
                and check_tag(message.payload, proof, entry[0])
            )
        if not self.manager_authenticator.authenticate(message) or proof.signer != manager:
            return False
        self._offered.discard(manager)
        return True

    def _handle_revoke(self, src: Address, message: RevokeNotify) -> None:
        if not self._from_manager(src, message.application):
            return
        cache = self.cache_for(message.application)
        removed = cache.flush(message.user, message.right)
        tracer = self.tracer
        if tracer.wants(TraceKind.CACHE_FLUSHED):
            tracer.publish(
                TraceKind.CACHE_FLUSHED,
                self.address,
                application=message.application,
                user=message.user,
                removed=removed,
            )
        else:
            tracer.bump(TraceKind.CACHE_FLUSHED)
        # Always ack so the manager stops retrying, even when the entry
        # had already expired or was never cached.
        self.send(src, RevokeNotifyAck(notify_id=message.notify_id, host=self.address))

    # -- failure hooks -----------------------------------------------------------------
    def on_crash(self) -> None:
        """Volatile state is lost: caches, pending queries, answer keys."""
        self._incarnation += 1
        for cache in self.caches.values():
            cache.clear()
        self._deny_cache.clear()
        self._pending_queries.clear()
        self._answer_keys.clear()
        self._offered.clear()
        self._silent.clear()

    def on_recover(self) -> None:
        """Nothing to restore — Section 3.4: the cache simply refills."""

    # -- the access check (Figures 2/3/4) ----------------------------------------------
    def probe_access(
        self, application: str, user: str, right: Right = Right.USE
    ) -> Optional[AccessDecision]:
        """First phase of one ``Invoke(A)``: Figure 3's cache probe.

        A cached grant's decision, or None on a miss, when the caller
        continues with ``check_access(..., missed=True)`` at this
        instant.  Schedules nothing, so a hit needs no process.
        """
        return self.pipeline.probe(application, user, right)

    def check_access(
        self, application: str, user: str, right: Right = Right.USE, missed: bool = False
    ):
        """Process generator deciding one ``Invoke(A)``.

        Yields simulation events; the driving process's value is an
        :class:`AccessDecision`.  The work happens in this host's
        :class:`~repro.protocols.VerificationPipeline`.  ``missed`` says
        :meth:`probe_access` already missed for this request.
        """
        return (yield from self.pipeline.check(application, user, right, missed))

    def request_access(self, application: str, user: str, right: Right = Right.USE):
        """Convenience: run :meth:`check_access` as a process."""
        return self.env.process(
            self.check_access(application, user, right),
            name=f"{self.address}/check:{user}@{application}",
        )

    # -- expiry stamping (Figure 3 + delta) ------------------------------------------
    def _expiry_limit(self, send_local: float, te: float, policy: AccessPolicy) -> float:
        """The cached entry's limit: ``Time() + te - delta``.

        ``send_local`` is the local clock when the deciding query round
        started; the local time elapsed since then bounds the
        transmission delay delta from above.
        """
        now_local = self.clock.now()
        if policy.delta_mode is DeltaMode.HALF_ROUND_TRIP:
            return now_local - (now_local - send_local) / 2.0 + te
        return send_local + te  # delta = full round trip, always safe

    # -- plumbing -----------------------------------------------------------------------
    @property
    def tracer(self):
        return self.network.tracer
