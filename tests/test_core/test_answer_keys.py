"""Pairwise-key answer authentication under loss, crashes and small keys.

One private-key operation per (host, manager) pair, not per answer: a
host hands each manager a key once, inside a query; the manager then
tags its answers under it.  RSA stays the fallback — and an RSA-signed
answer is how a host learns its key was lost and offers it again.  The
hostile-peer side is in ``test_extensions.py::TestSignedResponses``.
"""

from __future__ import annotations

import random

import pytest

from repro.auth.keys import PrivateKey
from repro.auth.signatures import Signature, Tag
from repro.core.policy import QueryStrategy

from .test_extensions import ExtensionHarness, fanout_policy, policy

USERS = [f"user{i}" for i in range(12)]


@pytest.fixture
def private_ops(monkeypatch):
    """Every private-key operation (sign or unwrap), as the modulus used."""
    ops = []
    power = PrivateKey.power
    monkeypatch.setattr(
        PrivateKey, "power", lambda self, m: ops.append(self.n) or power(self, m)
    )
    return ops


def keyed_harness(strategy=QueryStrategy.PARALLEL) -> ExtensionHarness:
    """Fan-out to all three managers unless told otherwise: most tests
    below script who is offered a key, and who answers how, per miss."""
    harness = ExtensionHarness(
        policy(check_quorum=2, max_attempts=2, query_strategy=strategy),
        signed=True,
        key_bits=192,
    )
    for user in USERS[::2]:
        harness.grant_everywhere(user)
    return harness


def record_proofs(harness) -> list:
    """Collects (manager, proof type) of every answer delivered to h0, in order."""
    proofs = []
    handle = harness.host.handle_message

    def recording(src, message):
        proofs.append((src, type(message.signature)))
        handle(src, message)

    harness.host.handle_message = recording
    return proofs


def test_a_thousand_misses_cost_three_private_key_operations(private_ops):
    harness = keyed_harness(QueryStrategy.QUORUM)  # the default: C managers per miss
    for index in range(1000):
        harness.grant_everywhere(f"p{index}")
    for index in range(1000):
        assert harness.check(f"p{index}", run_for=1.0).allowed
    assert harness.host.stats["checks"] == 1000
    asked = [manager.stats["queries"] for manager in harness.managers]
    assert sum(asked) == 2000 and max(asked) - min(asked) <= 1
    # One key offer, so one unwrap, per (host, manager) pair however the
    # misses rotate; 3 000 before PR 16: one sign per answer.
    assert sorted(private_ops) == sorted(m.principal.public_key.n for m in harness.managers)
    assert harness.host.rejected_manager_signatures == 0
    assert harness.host.late_manager_responses == 0


def test_decisions_match_an_unsigned_cell_on_a_lossy_network(private_ops):
    """A third of all messages lost, offers and answers alike: nothing
    about the decisions changes."""
    outcomes = []
    for signed in (True, False):
        harness = ExtensionHarness(
            policy(check_quorum=2, max_attempts=2), signed=signed, key_bits=192
        )
        harness.network.loss_rate = 0.35
        harness.network.rng = random.Random(5)
        for user in USERS[::2]:
            harness.grant_everywhere(user)
        decisions = [harness.check(user, run_for=10.0) for user in USERS * 3]
        outcomes.append([(d.allowed, d.reason) for d in decisions])
        dropped = harness.network.messages_dropped
        if signed:
            assert harness.host.rejected_manager_signatures == 0
            answers = sum(m.stats["queries"] for m in harness.managers)
    assert outcomes[0] == outcomes[1]
    assert dropped > 20 and answers > 60
    # Whatever was lost, far fewer private-key operations than answers.
    assert 3 <= len(private_ops) < 20


def test_lost_first_query_means_one_rsa_answer_then_tags(private_ops):
    harness = keyed_harness()
    proofs = record_proofs(harness)
    harness.connectivity.isolate("h0", ["m0"])  # the query carrying m0's key is lost
    assert harness.check(USERS[0]).allowed  # m1 + m2 are the quorum
    assert "m0" in harness.host._offered and harness.managers[0]._host_keys == {}
    harness.connectivity.heal()
    for user in USERS[1:5]:
        harness.check(user)
    from_m0 = [proof for src, proof in proofs if src == "m0"]
    assert from_m0 == [Signature, Tag, Tag, Tag]
    assert len(private_ops) == 4  # m1, m2 unwrap; m0 signs once, then unwraps
    assert harness.host.rejected_manager_signatures == 0


def test_manager_restart_forces_exactly_one_reoffer(private_ops):
    harness = keyed_harness()
    assert harness.check(USERS[0]).allowed
    assert len(private_ops) == 3  # one unwrap per manager
    m0 = harness.managers[0]
    m0.crash()
    m0.recover()
    harness.env.run(until=harness.env.now + 30.0)  # resync from peers
    assert m0._host_keys == {} and not m0.recovering
    del private_ops[:]
    for user in USERS[1:6]:
        harness.check(user)
    # One RSA-signed answer (m0 no longer holds the key), one unwrap of the
    # re-offered key, then tags again — all at m0.
    assert private_ops == [m0.principal.public_key.n] * 2
    assert m0._host_keys["h0"][0] == harness.host._answer_keys["m0"][1]
    assert harness.host.rejected_manager_signatures == 0


def test_host_restart_forces_exactly_one_reoffer_per_manager(private_ops):
    harness = keyed_harness()
    assert harness.check(USERS[0]).allowed
    old_ids = {m: entry[1] for m, entry in harness.host._answer_keys.items()}
    harness.host.crash()
    harness.host.recover()
    assert harness.host._answer_keys == {} and harness.host._offered == set()
    del private_ops[:]
    for user in USERS[1:6]:
        harness.check(user)
    assert sorted(private_ops) == sorted(m.principal.public_key.n for m in harness.managers)
    for manager in harness.managers:
        key_id = manager._host_keys["h0"][0]
        assert key_id == harness.host._answer_keys[manager.address][1] != old_ids[manager.address]
    assert harness.host.rejected_manager_signatures == 0


@pytest.mark.parametrize("bits", [32, 64, 128])
def test_keys_too_small_to_carry_a_pairwise_key_stay_on_rsa(bits, private_ops):
    harness = ExtensionHarness(
        fanout_policy(check_quorum=2, max_attempts=1), signed=True, key_bits=bits
    )
    harness.grant_everywhere("alice")
    assert harness.host.key_offer("m0") == (0, 0)
    assert harness.check("alice").allowed
    assert not harness.check("mallory").allowed
    assert harness.host._answer_keys == {}
    assert all(manager._host_keys == {} for manager in harness.managers)
    assert len(private_ops) == 6 and harness.host.rejected_manager_signatures == 0


def test_an_unknown_manager_key_stays_on_rsa():
    harness = keyed_harness()
    assert harness.host.key_offer("m-unregistered") == (0, 0)
    assert harness.host._answer_keys == {}


def test_first_answers_are_tagged_and_rsa_appears_only_after_a_loss():
    harness = keyed_harness()
    proofs = record_proofs(harness)
    harness.check(USERS[0])
    harness.check(USERS[1])
    assert [proof for _src, proof in proofs] == [Tag] * 6
    harness.managers[1].on_crash()  # loses its volatile tables only
    harness.check(USERS[2])
    harness.check(USERS[3])
    assert proofs[6:] == [
        ("m0", Tag), ("m1", Signature), ("m2", Tag), ("m0", Tag), ("m1", Tag), ("m2", Tag),
    ]
