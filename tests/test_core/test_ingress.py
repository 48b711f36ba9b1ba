"""The one ingress path: every role accepts only the kinds it names.

Each role declares a ``handlers`` table (message kind -> method name);
``Node.handle_message`` routes a delivery through it and drops and
counts every other kind in ``rejected_kinds``.  The matrix below sends
every wire sample — bare and inside a ``SignedMessage`` — to each role
of a simulated cell, from a registered source so any reply has
somewhere to go, and checks that nothing raises and that exactly the
kinds outside the role's table are counted.  The same matrix then runs
over real sockets: one :class:`~repro.net.cell.LiveCell`, with the
client roles on a runtime of their own.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.auth.identity import Authenticator, Principal, SignedMessage
from repro.auth.signatures import Signature, Tag
from repro.core import messages as m
from repro.core.admin import AdminClient
from repro.core.client import UserClient
from repro.core.policy import AccessPolicy
from repro.core.rights import AclEntry, Right, Version
from repro.core.name_service import TrustedNameService
from repro.core.system import AccessControlSystem
from repro.net.cell import LiveCell
from repro.net.codec import _WIRE_TYPES
from repro.net.runtime import LiveRuntime
from repro.sim.network import FixedLatency
from repro.sim.node import Node
from ..test_net.test_wire_golden import MESSAGES

_V = Version(1_700_000_000_123, "m0")
SAMPLES = MESSAGES + (
    _V,
    AclEntry("u7", Right.USE, True, _V),
    Tag(signer="m0", key_id=5, value=99),
    Signature(signer="m0", value=12345),
)

#: The accepted kinds of each role, spelled out: a change to a table
#: must change this too.
ACCEPTED = {
    "manager": {
        (SignedMessage, m.AdminRequest), m.AdminRequest, m.QueryRequest, m.UpdateMsg,
        m.UpdateAck, m.RevokeNotifyAck, m.SyncRequest, m.SyncResponse, m.Ping, m.Pong,
    },
    "host": {
        (SignedMessage, m.QueryResponse), m.QueryResponse, m.RevokeNotify, m.NameResult,
        (SignedMessage, m.AppRequest), m.AppRequest,
    },
    "user": {m.AppResponse},
    "admin": {m.AdminResponse},
    "name_service": {m.NameLookup},
}


def _kind(message):
    if type(message) is SignedMessage:
        return (SignedMessage, type(message.payload))
    return type(message)


def _signed(sample):
    return SignedMessage(payload=sample, signature=Signature(signer="src", value=1))


#: Every sample, bare and signed, in sending order.
_MATRIX = tuple(message for sample in SAMPLES for message in (sample, _signed(sample)))


def _cell():
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        applications=("app",),
        policy=AccessPolicy(check_quorum=2, max_attempts=2, query_timeout=1.0),
        latency=FixedLatency(0.01),
        use_name_service=True,
    )
    source = system.network.register(Node("src"))
    roles = {
        "manager": system.managers[0],
        "host": system.hosts[0],
        "user": system.network.register(UserClient("c0", "alice")),
        "admin": system.network.register(AdminClient("a0", "root")),
        "name_service": system.name_service,
    }
    return system, source, roles


def test_the_samples_cover_every_wire_kind():
    assert {type(sample) for sample in SAMPLES} == set(_WIRE_TYPES)


@pytest.mark.parametrize("role", sorted(ACCEPTED))
def test_each_role_declares_exactly_its_accepted_kinds(role):
    _system, _source, roles = _cell()
    assert set(type(roles[role]).handlers) == ACCEPTED[role]


@pytest.mark.parametrize("role", sorted(ACCEPTED))
def test_every_kind_is_handled_or_dropped_and_counted(role):
    system, source, roles = _cell()
    node = roles[role]
    for sample in SAMPLES:
        for message in (sample, _signed(sample)):
            before = node.rejected_kinds
            source.send(node.address, message)
            system.run(until=system.env.now + 5.0)  # nothing raises
            dropped = _kind(message) not in ACCEPTED[role]
            assert node.rejected_kinds - before == dropped, (role, _kind(message))


def test_a_signed_stray_kind_costs_the_host_no_signature_check():
    system, source, roles = _cell()
    host = roles["host"]
    authenticator = Authenticator()
    authenticator.register(Principal("m1"))
    host.authenticator = authenticator
    calls = []
    authenticate = authenticator.authenticate

    def counting(message):
        calls.append(message)
        return authenticate(message)

    authenticator.authenticate = counting
    stray = Principal("m1").sign(m.Ping(nonce=1, sender="m1"))
    source.send(host.address, stray)
    system.run(until=1.0)
    assert calls == []
    assert host.rejected_kinds == 1 and host.rejected_signatures == 0


def test_every_kind_over_the_wire_to_one_live_cell():
    """Each role of a live cell takes every sample over TCP from a
    source on its own runtime: exactly the stray kinds are dropped and
    counted, and every runtime keeps serving."""
    secret = b"ingress-matrix-secret"

    async def scenario():
        cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=2),
                        secret=secret, time_scale=20.0)
        cell.seed_grant("app", "zed")
        clients = LiveRuntime(secret, time_scale=20.0)
        probe = LiveRuntime(secret, time_scale=20.0)
        roles = {
            "manager": cell.managers[0],
            "host": cell.hosts[0],
            "user": clients.register(UserClient("c0", "alice")),
            "admin": clients.register(AdminClient("a0", "root")),
            "name_service": clients.register(TrustedNameService()),
        }
        source = probe.register(Node("src"))
        await cell.start()
        runtimes = [*cell.runtimes.values(), clients, probe]
        try:
            directory = dict(cell.directory)
            directory["c0"] = directory["a0"] = directory["name-service"] = (
                cell.bind_host, await clients.start(cell.bind_host, 0),
            )
            await probe.start(cell.bind_host, 0)
            clients.set_peers(cell.directory)
            probe.set_peers(directory)
            outcomes = {}
            for role, node in roles.items():
                seen = outcomes[role] = []
                deliver = node.handle_message

                def spy(src, message, node=node, deliver=deliver, seen=seen):
                    before = node.rejected_kinds
                    deliver(src, message)
                    if src == "src":
                        seen.append((_kind(message), node.rejected_kinds - before))

                def send_matrix(dst=node.address):
                    for message in _MATRIX:
                        source.send(dst, message)

                node.handle_message = spy
                probe.call_soon(send_matrix)
                for _ in range(1000):
                    if len(seen) == len(_MATRIX):
                        break
                    await asyncio.sleep(0.01)
            serving = [rt._running and rt._failure is None for rt in runtimes]
            decision = await asyncio.wait_for(cell.check(0, "app", "zed"), 10.0)
            return outcomes, serving, decision.allowed
        finally:
            await probe.stop()
            await clients.stop()
            await cell.stop()  # a runtime whose pass raised re-raises here

    outcomes, serving, allowed = asyncio.run(scenario())
    for role in ACCEPTED:
        assert outcomes[role] == [
            (_kind(message), int(_kind(message) not in ACCEPTED[role])) for message in _MATRIX
        ], role
    assert all(serving)
    assert allowed
