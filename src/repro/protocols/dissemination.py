"""Manager-side dissemination strategies: quorum vs freeze (§3.3).

An ``Add``/``Revoke`` is applied locally, then disseminated
*persistently* ("repeatedly transmits the update to every manager until
it succeeds").  The two members of the paper's family differ in when
the blocking call may return and in what guarantees queries give while
managers are unreachable:

* :class:`QuorumStrategy` — return once the ``M - C + 1`` update quorum
  has applied the operation; the check quorum's intersection with it
  guarantees every subsequent query sees the update.
* :class:`FreezeStrategy` — return only when *all* managers have
  applied it; in exchange any manager that has lost contact with a peer
  for longer than ``Ti`` freezes — "no responses are sent to
  application hosts until all managers are accessible again".

Both share the persistent-retry transmission loop and the progress
bookkeeping; the strategy object is stateless, while the in-flight
:class:`PendingUpdate` records live on the manager (they are part of
its crash state).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Set

from ..core.messages import AclUpdate, Ping, UpdateMsg
from ..core.policy import AccessPolicy
from ..core.rights import Right, Version, hlc_counter
from ..sim.engine import Event
from ..sim.node import Address
from ..sim.trace import TraceKind

__all__ = [
    "PendingUpdate",
    "DisseminationStrategy",
    "QuorumStrategy",
    "FreezeStrategy",
    "dissemination_strategy_for",
]


@dataclass
class PendingUpdate:
    """Book-keeping for one in-flight update's dissemination."""

    update: object  # AclUpdate
    unacked: Set[Address]
    quorum_needed: int
    acks: int  # managers known to have applied (self included)
    quorum_event: Event
    done_event: Event
    issued_at: float


class DisseminationStrategy:
    """Shared persistent-dissemination machinery; subclasses choose the
    blocking point and the availability rule."""

    def issue(
        self, manager, application: str, user: str, right: Right, grant: bool
    ):
        """Section 2.3's ``Add``/``Revoke``: apply locally, forward a
        revocation, then disseminate persistently.  Returns an
        :class:`~repro.core.manager.UpdateHandle`."""
        from ..core.manager import UpdateHandle

        if application not in manager.acls:
            raise KeyError(f"{manager.address!r} does not manage {application!r}")
        if not manager.up:
            raise RuntimeError(f"manager {manager.address!r} is down")
        policy = manager.policy_for(application)
        peers = manager._peers[application]
        quorum_needed = self.quorum_needed(policy, len(peers) + 1)
        # Advance past whatever this manager already stores for the key
        # AND past physical time (hybrid logical clock): a later
        # operation must win the version race even when this manager
        # has not yet received earlier committed updates.
        current = manager.acl(application).version_of(user, right)
        manager._counter = max(manager._counter, current.counter)
        manager._counter = hlc_counter(manager.env.now, manager._counter)
        update = AclUpdate(
            update_id=f"{manager.address}:{next(manager._update_ids)}",
            application=application,
            user=user,
            right=right,
            grant=grant,
            version=Version(manager._counter, manager.address),
            origin=manager.address,
        )
        manager._apply_entry(application, update.entry())
        tracer = manager.tracer
        if tracer.wants(TraceKind.UPDATE_ISSUED):
            tracer.publish(
                TraceKind.UPDATE_ISSUED,
                manager.address,
                application=application,
                user=user,
                right=str(right),
                grant=grant,
                update_id=update.update_id,
                version=(update.version.counter, update.version.origin),
            )
        else:
            tracer.bump(TraceKind.UPDATE_ISSUED)
        pending = PendingUpdate(
            update=update,
            unacked=set(peers),
            quorum_needed=quorum_needed,
            acks=1,  # self
            quorum_event=manager.env.event(),
            done_event=manager.env.event(),
            issued_at=manager.env.now,
        )
        manager._pending_updates[update.update_id] = pending
        if not grant:
            manager.revocation.forward(manager, update)
        self.check_progress(manager, pending)
        if pending.unacked:
            manager.spawn(
                self.disseminate(manager, pending, policy),
                name=f"{manager.address}/update:{update.update_id}",
            )
        return UpdateHandle(
            update=update, quorum=pending.quorum_event, complete=pending.done_event
        )

    def is_frozen(self, manager, application: str, policy: AccessPolicy) -> bool:
        """May this manager answer queries for ``application`` now?"""
        return False

    def monitors(self, manager, application: str, policy: AccessPolicy):
        """Background processes to spawn at attach: (name, generator)."""
        return ()

    def disseminate(self, manager, pending: PendingUpdate, policy: AccessPolicy):
        """Persistent dissemination: retry unacked peers forever.

        The pacing timer races against ``done_event`` so the last ack
        releases the loop immediately and the losing timer is elided
        from the heap instead of firing into a finished update.
        """
        message = UpdateMsg(update=pending.update)
        while pending.unacked:
            if manager.up:
                manager.multicast(sorted(pending.unacked), message)
            yield manager.env.any_of(
                [pending.done_event, manager.env.timeout(policy.update_retry_interval)]
            )

    def check_progress(self, manager, pending: PendingUpdate) -> None:
        """Fire the quorum / completion events as acks arrive."""
        tracer = manager.tracer
        if pending.acks >= pending.quorum_needed and not pending.quorum_event.triggered:
            pending.quorum_event.succeed(manager.env.now - pending.issued_at)
            if tracer.wants(TraceKind.UPDATE_QUORUM_REACHED):
                tracer.publish(
                    TraceKind.UPDATE_QUORUM_REACHED,
                    manager.address,
                    update_id=pending.update.update_id,
                    application=pending.update.application,
                    elapsed=manager.env.now - pending.issued_at,
                    acks=pending.acks,
                    grant=pending.update.grant,
                )
            else:
                tracer.bump(TraceKind.UPDATE_QUORUM_REACHED)
        if not pending.unacked and not pending.done_event.triggered:
            pending.done_event.succeed(manager.env.now - pending.issued_at)
            if tracer.wants(TraceKind.UPDATE_FULLY_PROPAGATED):
                tracer.publish(
                    TraceKind.UPDATE_FULLY_PROPAGATED,
                    manager.address,
                    update_id=pending.update.update_id,
                    application=pending.update.application,
                    elapsed=manager.env.now - pending.issued_at,
                )
            else:
                tracer.bump(TraceKind.UPDATE_FULLY_PROPAGATED)
            manager._pending_updates.pop(pending.update.update_id, None)

    def on_ack(self, manager, pending: PendingUpdate, acker: Address) -> None:
        """One peer acked the update."""
        if acker in pending.unacked:
            pending.unacked.discard(acker)
            pending.acks += 1
            self.check_progress(manager, pending)


class QuorumStrategy(DisseminationStrategy):
    """Section 3.3's default: block until ``M - C + 1`` acks."""

    def quorum_needed(self, policy: AccessPolicy, m: int) -> int:
        return policy.update_quorum(m)


class FreezeStrategy(DisseminationStrategy):
    """Section 3.3's alternative: block until *all* acks; freeze when a
    peer has been unreachable for longer than ``Ti``."""

    def quorum_needed(self, policy: AccessPolicy, m: int) -> int:
        return m

    def is_frozen(self, manager, application: str, policy: AccessPolicy) -> bool:
        """Has any peer been unreachable for longer than ``Ti``?"""
        peers = manager._peers.get(application, ())
        now = manager.env.now
        return any(
            now - manager._last_heard.get(peer, 0.0) > policy.inaccessibility_period
            for peer in peers
        )

    def monitors(self, manager, application: str, policy: AccessPolicy):
        if manager._peers[application]:
            yield (
                f"{manager.address}/freeze:{application}",
                self.monitor(manager, application, policy),
            )

    def monitor(self, manager, application: str, policy: AccessPolicy):
        """Ping peers and publish freeze/unfreeze transitions."""
        nonce = itertools.count(1)
        while True:
            if manager.up:
                # Distinct nonce per peer, but one scheduler insertion
                # for the whole constant-latency ping fan-out.
                manager.send_many(
                    [
                        (peer, Ping(nonce=next(nonce), sender=manager.address))
                        for peer in manager._peers[application]
                    ]
                )
                frozen = self.is_frozen(manager, application, policy)
                was_frozen = application in manager._frozen_apps
                tracer = manager.tracer
                if frozen and not was_frozen:
                    manager._frozen_apps.add(application)
                    if tracer.wants(TraceKind.MANAGER_FROZEN):
                        tracer.publish(
                            TraceKind.MANAGER_FROZEN,
                            manager.address,
                            application=application,
                        )
                    else:
                        tracer.bump(TraceKind.MANAGER_FROZEN)
                elif not frozen and was_frozen:
                    manager._frozen_apps.discard(application)
                    if tracer.wants(TraceKind.MANAGER_UNFROZEN):
                        tracer.publish(
                            TraceKind.MANAGER_UNFROZEN,
                            manager.address,
                            application=application,
                        )
                    else:
                        tracer.bump(TraceKind.MANAGER_UNFROZEN)
            yield manager.env.timeout(policy.ping_interval)


_QUORUM = QuorumStrategy()
_FREEZE = FreezeStrategy()


def dissemination_strategy_for(policy: AccessPolicy) -> DisseminationStrategy:
    """The dissemination strategy a policy's ``use_freeze`` selects."""
    return _FREEZE if policy.use_freeze else _QUORUM
