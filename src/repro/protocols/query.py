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

from array import array
from typing import Dict, List, Optional, Tuple

from ..auth.identity import SignedMessage
from ..auth.signatures import PAIRWISE_KEY_BYTES, key_fingerprint, make_tag
from ..core.ids import Interner
from ..core.messages import QueryRequest, QueryResponse, Verdict
from ..core.rights import Right
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


class GrantTable:
    """Which hosts were granted ``(user, right)`` of one application, and
    until when: the hosts a revocation must chase (Section 3.1).

    Keys are ``uid * 2 + right.index`` under the manager's interner, so
    the table holds no name.  Each key maps to a chain of records in
    typed columns — host index, ``Te`` deadline, next record — with
    freed records kept on a free list: a single-holder key costs a dict
    slot from an ``int`` key to an ``int`` record and 16 bytes of
    columns, not a key tuple, a holders tuple and a boxed deadline.  A chain is in first-grant order: :meth:`hold` raises a
    host's deadline in place and appends a new host last, and
    :meth:`pop` returns the holders in that order, which is the order
    :meth:`RevocationForwarder.forward` spawns its notifies in.

    A holder whose deadline has passed can never be sent a
    ``RevokeNotify`` (the forwarder skips it), so :meth:`sweep` drops
    it, and a key with none left; the answerer sweeps whenever the
    table has doubled since the last sweep, which keeps the table
    within twice its live keys at amortised O(1) per grant.
    """

    __slots__ = (
        "_ids", "_head", "_host", "_deadline", "_next", "_free", "_hosts",
        "_host_index", "sweep_at",
    )

    def __init__(self, interner: Interner) -> None:
        self._ids = interner
        self._hosts: List[Address] = []  # host index -> address
        self._host_index: Dict[Address, int] = {}
        self.clear()
        self.sweep_at = SWEEP_FLOOR

    def clear(self) -> None:
        """Forget every holder (a crash: the table is volatile)."""
        self._head: Dict[int, int] = {}  # packed key -> its first record
        self._host = array("i")  # host index per record
        self._deadline = array("d")  # Te deadline per record
        self._next = array("i")  # next record of the chain (or free list); -1 ends it
        self._free = -1

    def _key(self, user: str, right: Right) -> int:
        """Packed key of a held pair, or -1 if ``user`` was never interned."""
        uid = self._ids.get(user)
        return -1 if uid is None else uid * 2 + right.index

    def _record(self, host: int, deadline: float) -> int:
        """A record holding ``host`` until ``deadline``, ending a chain."""
        record = self._free
        if record < 0:
            self._host.append(host)
            self._deadline.append(deadline)
            self._next.append(-1)
            return len(self._next) - 1
        self._free = self._next[record]
        self._host[record] = host
        self._deadline[record] = deadline
        self._next[record] = -1
        return record

    def _release(self, record: int) -> None:
        self._next[record] = self._free
        self._free = record

    def hold(self, user: str, right: Right, host: Address, deadline: float) -> None:
        """Record that ``host`` holds ``(user, right)`` until at least
        ``deadline``: a deadline only rises, a new host goes last."""
        index = self._host_index.get(host)
        if index is None:
            index = self._host_index[host] = len(self._hosts)
            self._hosts.append(host)
        key = self._ids.intern(user) * 2 + right.index
        record = self._head.get(key, -1)
        if record < 0:
            self._head[key] = self._record(index, deadline)
            return
        hosts, nexts = self._host, self._next
        while hosts[record] != index:
            last, record = record, nexts[record]
            if record < 0:
                nexts[last] = self._record(index, deadline)
                return
        if self._deadline[record] < deadline:
            self._deadline[record] = deadline

    def _walk(self, record: int) -> List[Tuple[Address, float]]:
        held = []
        while record >= 0:
            held.append((self._hosts[self._host[record]], self._deadline[record]))
            record = self._next[record]
        return held

    def pop(self, user: str, right: Right) -> List[Tuple[Address, float]]:
        """Remove ``(user, right)`` and return its holders, first-grant order."""
        record = self._head.pop(self._key(user, right), -1)
        held = self._walk(record)
        while record >= 0:
            following = self._next[record]
            self._release(record)
            record = following
        return held

    def sweep(self, now: float) -> None:
        """Drop holders with ``now >= deadline``; survivors keep their
        first-grant order."""
        head, deadlines, nexts = self._head, self._deadline, self._next
        for key, first in list(head.items()):
            kept = last = -1
            record = first
            while record >= 0:
                following = nexts[record]
                if now >= deadlines[record]:
                    self._release(record)
                else:
                    if last < 0:
                        kept = record
                    else:
                        nexts[last] = record
                    last = record
                record = following
            if last < 0:
                del head[key]
            else:
                nexts[last] = -1
                if kept != first:
                    head[key] = kept
        self.sweep_at = max(2 * len(head), SWEEP_FLOOR)

    def __len__(self) -> int:
        """Keys with at least one holder."""
        return len(self._head)


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
        granted, version = manager.acls[application].lookup(request.user, request.right)
        if granted:
            manager.stats["grants"] += 1
            table = manager._grant_table[application]
            now = manager.env.now
            table.hold(request.user, request.right, src, now + policy.expiry_bound)
            if len(table) >= table.sweep_at:
                table.sweep(now)
            verdict = Verdict.GRANT
        else:
            manager.stats["denials"] += 1
            verdict = Verdict.DENY
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
