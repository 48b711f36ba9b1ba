"""Peer traffic is applied only from peers (ROADMAP 1(a)(ii), 1(c)'s sim half).

The host half is at the end: a host takes query answers and revocation
notices only from a manager of the application.

A registered node that is not a manager sends ``m0`` a well-formed
``UpdateMsg`` granting ``u`` under a version counter far ahead of every
real one, claiming ``m1`` as its origin.  ``m1`` then revokes ``u``.  The
centralised ACL would deny ``u`` from then on (Chaudhuri: the
distributed system admits nothing the central ACL would refuse), so
after the revocation has settled every manager must deny and so must
the host's check.  Before the source check ``m0`` kept the forged
grant, because its counter beat the revocation's, and the host's
highest-version combiner picked it.  Now a manager refuses every update,
ack and sync message whose source is not in the application's manager
group, and every Ping/Pong from outside all its groups, and counts each
refusal in ``rejected_sources``.  In the simulator the network's ``src``
is true; over sockets it is a name inside the sealed frame (ROADMAP 19).
"""

from __future__ import annotations

import pytest

from repro.auth.identity import Principal
from repro.core.messages import (
    AclUpdate,
    Ping,
    Pong,
    QueryResponse,
    RevokeNotify,
    SyncRequest,
    SyncResponse,
    UpdateAck,
    UpdateMsg,
    Verdict,
)
from repro.core.rights import AclEntry, Right, Version
from repro.sim.node import Node

from .test_manager import APP, ManagerHarness, policy


def test_forged_update_does_not_outlive_a_revocation():
    harness = ManagerHarness(policy(check_quorum=2, expiry_bound=100.0))
    harness.grant_everywhere("u")
    forger = harness.network.register(Node("x9"))
    forger.send("m0", UpdateMsg(AclUpdate(
        update_id="x9:1", application=APP, user="u", right=Right.USE,
        grant=True, version=Version(2**62, "m1"), origin="m1",
    )))
    harness.managers[1].revoke(APP, "u")
    harness.run(300.0)

    assert [m.acl(APP).check("u", Right.USE) for m in harness.managers] == [
        False, False, False,
    ]
    check = harness.hosts[0].request_access(APP, "u")
    harness.run(10.0)
    assert not check.value.allowed, check.value


class _Forger(Node):
    """A registered non-manager that keeps whatever it is sent."""

    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def handle_message(self, src, message):
        self.received.append(message)


_GRANT = AclUpdate(update_id="x9:1", application=APP, user="mallory", right=Right.USE,
                   grant=True, version=Version(2**62, "m1"), origin="m1")
_FORGED = {
    "update": lambda update_id: UpdateMsg(_GRANT),
    "ack-from-non-peer": lambda update_id: UpdateAck(update_id=update_id, acker="x9"),
    "ack-naming-a-peer": lambda update_id: UpdateAck(update_id=update_id, acker="m1"),
    "sync-request": lambda update_id: SyncRequest(requester="x9", applications=(APP,)),
    "sync-response": lambda update_id: SyncResponse(
        responder="m1", snapshots=((APP, (AclEntry("mallory", Right.USE, True,
                                                    Version(2**62, "m1")),)),)),
    "ping": lambda update_id: Ping(nonce=1, sender="x9"),
    "pong": lambda update_id: Pong(nonce=1, sender="x9"),
}


@pytest.mark.parametrize("kind", sorted(_FORGED))
def test_peer_traffic_from_a_non_peer_is_refused_and_counted(kind):
    harness = ManagerHarness(policy(check_quorum=2, expiry_bound=100.0))
    m0 = harness.managers[0]
    forger = harness.network.register(_Forger("x9"))
    # m0's own update stays pending: its peers cannot ack it.
    harness.connectivity.isolate("m0", ["m1", "m2"])
    update_id = m0.add(APP, "u").update.update_id
    pending = m0._pending_updates[update_id]
    forger.send("m0", _FORGED[kind](update_id))
    harness.run(1.0)

    assert m0.rejected_sources == 1
    assert not m0.acl(APP).check("mallory", Right.USE)
    assert pending.unacked == {"m1", "m2"}
    assert "x9" not in m0._last_heard and "m1" not in m0._synced_peers
    assert forger.received == []


# -- the host half --------------------------------------------------------------


def _grant(query_id, manager):
    return QueryResponse(query_id=query_id, application=APP, user="mallory",
                         right=Right.USE, verdict=Verdict.GRANT, te=100.0,
                         version=Version(2**62, "m0"), manager=manager)


#: sender, and the forged answer it sends for a pending query id.
_FORGED_ANSWERS = {
    "bare-from-non-manager": ("x9", lambda qid: _grant(qid, "x9")),
    "bare-naming-a-manager": ("x9", lambda qid: _grant(qid, "m0")),
    "signed-from-non-manager": ("x9", lambda qid: Principal("x9").sign(_grant(qid, "x9"))),
    "manager-naming-another": ("m1", lambda qid: _grant(qid, "m0")),
}


@pytest.mark.parametrize("kind", sorted(_FORGED_ANSWERS))
def test_an_answer_not_from_the_manager_it_names_is_refused(kind):
    harness = ManagerHarness(policy(check_quorum=2, expiry_bound=100.0))
    host = harness.hosts[0]
    harness.network.register(_Forger("x9"))
    sender, forge = _FORGED_ANSWERS[kind]
    host._silent.add("m0")
    check = host.request_access(APP, "mallory")  # never granted
    harness.run(0.01)  # the queries are out; answers land at 0.1
    qids = sorted(host._pending_queries._pending)
    assert qids
    for qid in qids:
        harness.network.nodes[sender].send("h0", forge(qid))
    harness.run(0.07)  # the forgeries have landed, the answers have not

    assert all(qid in host._pending_queries for qid in qids)
    assert "m0" in host._silent and host.late_manager_responses == 0
    harness.run(10.0)
    assert not check.value.allowed, check.value
    assert host.rejected_sources == len(qids)


def test_a_revocation_notice_from_a_non_manager_is_refused():
    harness = ManagerHarness(policy(check_quorum=2, expiry_bound=100.0))
    harness.grant_everywhere("u")
    host = harness.hosts[0]
    forger = harness.network.register(_Forger("x9"))
    host.request_access(APP, "u")  # caches the grant
    harness.run(1.0)
    flushed = harness.tracer.counts().get("cache_flushed", 0)
    forger.send("h0", RevokeNotify(application=APP, user="u", right=Right.USE,
                                   version=Version(2**62, "m0"), notify_id=1))
    harness.run(1.0)

    assert host.cache_for(APP).probe("u", Right.USE, host.clock.now()) is not None
    assert harness.tracer.counts().get("cache_flushed", 0) == flushed
    assert forger.received == []  # no ack
    assert host.rejected_sources == 1
    check = host.request_access(APP, "u")
    harness.run(1.0)
    assert check.value.allowed and check.value.reason == "cache"
