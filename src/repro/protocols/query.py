"""Answering ``Query(A, U, R)`` at a manager (Figure 2, right side).

A truthful manager answers from its local ACL copy, records the grant
in the grant table with a ``Te``-bounded deadline (so a later
revocation knows which hosts to chase), and stays *silent* — "no
responses are sent to application hosts" — while recovering or while
the freeze strategy has frozen the application.  Responses are
authenticated when the manager has a principal, so Byzantine-mode hosts
can tell who made them (footnote 2): tagged under the pairwise key the
asking host named in its query when the manager holds that key or the
query carries it, RSA-signed otherwise — which is also how a host
learns that its key was lost and must be offered again.
"""

from __future__ import annotations

from typing import Optional

from ..auth.identity import SignedMessage
from ..auth.signatures import PAIRWISE_KEY_BYTES, key_fingerprint, make_tag
from ..core.messages import QueryRequest, QueryResponse, Verdict
from ..sim.node import Address

__all__ = ["GrantTable", "QueryAnswerer", "MAX_HOST_KEYS", "SWEEP_FLOOR"]

#: Pairwise keys a manager keeps, one per asking host; the host offered
#: longest ago is evicted (and simply offers again).
MAX_HOST_KEYS = 1024

#: Keys a grant table holds before its first sweep of expired holders.
#: A holder the sweep drops goes last if it is granted again, which can
#: reorder a later revocation's notifies and so a simulation's events.
#: The experiments' cells and ``bench_e2e``'s ``sim_cell`` (5 000
#: principals) stay below it, so their runs are the unswept ones.
SWEEP_FLOOR = 8192


def _pairwise_key(manager, src: Address, request: QueryRequest) -> Optional[bytes]:
    """The key ``request`` names, if this manager holds it or can unwrap
    it from the request (one private-key operation); None means sign."""
    key_id = request.key_id
    if not key_id:
        return None
    keys = manager._host_keys
    held = keys.get(src)
    if held is not None and held[0] == key_id:
        return held[1]
    if not request.wrapped_key:
        return None
    try:
        key = manager.principal.keypair.private.unwrap(request.wrapped_key, PAIRWISE_KEY_BYTES)
    except ValueError:
        key = None
    if key is None or key_fingerprint(key) != key_id:
        manager.rejected_key_offers += 1
        return None
    keys.pop(src, None)
    if len(keys) >= MAX_HOST_KEYS:
        del keys[next(iter(keys))]
    keys[src] = (key_id, key)
    return key


def _hold(holders: tuple, host: Address, deadline: float) -> tuple:
    """Grant-table holders ``(host, deadline, ...)`` with ``host`` holding
    until at least ``deadline``; a new host goes last (first-grant order)."""
    for i in range(0, len(holders), 2):
        if holders[i] == host:
            if holders[i + 1] >= deadline:
                return holders
            return holders[: i + 1] + (deadline,) + holders[i + 2 :]
    return holders + (host, deadline)


class GrantTable(dict):
    """``(user, right) -> (host, deadline, ...)`` for one application.

    A holder whose deadline has passed can never be sent a
    ``RevokeNotify`` (:meth:`RevocationForwarder.forward` skips it), so
    :meth:`sweep` drops it, and a key with none left; the answerer sweeps
    whenever the table has doubled since the last sweep, which keeps the
    table within twice its live keys at amortised O(1) per grant.
    """

    __slots__ = ("sweep_at",)

    def __init__(self) -> None:
        super().__init__()
        self.sweep_at = SWEEP_FLOOR

    def sweep(self, now: float) -> None:
        """Drop holders with ``now >= deadline``; survivors keep their
        first-grant order."""
        stale = [key for key, holders in self.items() if now >= min(holders[1::2])]
        for key in stale:
            holders = self[key]
            live = tuple(
                item
                for i in range(0, len(holders), 2)
                if now < holders[i + 1]
                for item in holders[i : i + 2]
            )
            if live:
                self[key] = live
            else:
                del self[key]
        self.sweep_at = max(2 * len(self), SWEEP_FLOOR)


class QueryAnswerer:
    """The truthful query-answering strategy."""

    def answer(self, manager, src: Address, request: QueryRequest) -> None:
        manager.stats["queries"] += 1
        application = request.application
        if application not in manager.acls:
            return  # not a manager for this app; stay silent
        policy = manager.policy_for(application)
        if manager.recovering or manager._is_frozen(application, policy):
            manager.stats["silent"] += 1
            return  # "no responses are sent to application hosts"
        acl = manager.acl(application)
        entry = acl.entry(request.user, request.right)
        if entry is not None and entry.granted:
            manager.stats["grants"] += 1
            table = manager._grant_table[application]
            key = (request.user, request.right)
            now = manager.env.now
            table[key] = _hold(table.get(key, ()), src, now + policy.expiry_bound)
            if len(table) >= table.sweep_at:
                table.sweep(now)
            verdict, version = Verdict.GRANT, entry.version
        else:
            manager.stats["denials"] += 1
            verdict = Verdict.DENY
            version = entry.version if entry is not None else acl.version_of(
                request.user, request.right
            )
        response = QueryResponse(
            query_id=request.query_id,
            application=application,
            user=request.user,
            right=request.right,
            verdict=verdict,
            te=policy.te_local,
            version=version,
            manager=manager.address,
        )
        principal = manager.principal
        if principal is None:
            manager.send(src, response)
            return
        key = _pairwise_key(manager, src, request)
        if key is None:
            manager.send(src, principal.sign(response))
        else:
            tag = make_tag(response, principal.user_id, key, request.key_id)
            manager.send(src, SignedMessage(response, tag))
