"""Tests for principals and the authenticator."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth.identity import Authenticator, Principal
from repro.auth.keys import generate_keypair

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def alice():
    return Principal("alice", generate_keypair(bits=128, rng=random.Random(1)))


@pytest.fixture(scope="module")
def bob():
    return Principal("bob", generate_keypair(bits=128, rng=random.Random(2)))


class TestAuthenticator:
    def test_registered_principal_authenticates(self, alice):
        auth = Authenticator()
        auth.register(alice)
        assert auth.authenticate(alice.sign({"hello": 1}))

    def test_unknown_signer_rejected(self, alice):
        auth = Authenticator()
        assert not auth.authenticate(alice.sign("x"))

    def test_forged_identity_rejected(self, alice, bob):
        """bob signs with his key but claims to be alice."""
        auth = Authenticator()
        auth.register(alice)
        auth.register(bob)
        message = bob.sign("payload")
        forged = type(message)(
            payload=message.payload,
            signature=type(message.signature)(
                signer="alice", value=message.signature.value
            ),
        )
        assert not auth.authenticate(forged)

    def test_tampered_payload_rejected(self, alice):
        auth = Authenticator()
        auth.register(alice)
        message = alice.sign({"amount": 10})
        tampered = type(message)(payload={"amount": 99}, signature=message.signature)
        assert not auth.authenticate(tampered)

    def test_compromised_identity_still_authenticates(self, alice):
        """Compromise is an authorization problem, not an
        authentication one — the adversary holds the real key."""
        auth = Authenticator()
        auth.register(alice)
        auth.mark_compromised("alice")
        assert "alice" in auth.compromised
        assert auth.authenticate(alice.sign("still valid"))

    def test_knows(self, alice):
        auth = Authenticator()
        assert not auth.knows("alice")
        auth.register(alice)
        assert auth.knows("alice")

    def test_rekeying_replaces_old_key(self):
        old = Principal("u", generate_keypair(bits=128, rng=random.Random(3)))
        new = Principal("u", generate_keypair(bits=128, rng=random.Random(4)))
        auth = Authenticator()
        auth.register(old)
        auth.register(new)
        assert auth.authenticate(new.sign("m"))
        assert not auth.authenticate(old.sign("m"))


class TestPrincipal:
    def test_default_keypair_generated(self):
        principal = Principal("p1")
        assert principal.public_key.n > 0

    def test_sign_produces_verifiable_message(self, alice):
        auth = Authenticator()
        auth.register_key("alice", alice.public_key)
        assert auth.authenticate(alice.sign([1, 2, 3]))


class TestDefaultKeys:
    """``Principal(user_id)`` derives its key from SHA-256 of the id."""

    def test_distinct_ids_get_distinct_moduli(self):
        # 300 ids: the old ``hash(id) & 0xFFFF`` seed had 2**16 keys in all,
        # so a birthday collision among 300 was already ~50 % likely.
        moduli = {Principal(f"principal-{i}").public_key.n for i in range(300)}
        assert len(moduli) == 300

    @settings(deadline=None, max_examples=25)
    @given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    def test_same_id_same_key_different_id_different_key(self, left, right):
        same = Principal(left).public_key == Principal(left).public_key
        assert same and (left == right) == (Principal(left).public_key == Principal(right).public_key)

    def test_two_interpreters_agree(self):
        script = (
            "from repro.auth.identity import Principal; "
            "print(Principal('m0').public_key.n, Principal('h\u00e9').public_key.n)"
        )
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.add(done.stdout)
        assert outputs == {f"{Principal('m0').public_key.n} {Principal('hé').public_key.n}\n"}

    def test_explicit_keypair_or_rng_still_wins(self):
        pair = generate_keypair(bits=64, rng=random.Random(3))
        assert Principal("x", pair).keypair is pair
        seeded = Principal("x", rng=random.Random(3)).public_key
        assert seeded == Principal("y", rng=random.Random(3)).public_key != Principal("x").public_key

    def test_authenticator_exposes_registered_keys(self):
        auth = Authenticator()
        principal = Principal("m0")
        auth.register(principal)
        assert auth.key_of("m0") == principal.public_key and auth.key_of("m1") is None
