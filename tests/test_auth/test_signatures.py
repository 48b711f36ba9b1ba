"""Tests for message signing."""

from __future__ import annotations

import random

import pytest

from repro.auth.keys import PrivateKey, generate_keypair
from repro.auth.signatures import canonical_bytes, message_digest, sign, verify
from repro.core.messages import AppRequest
from repro.core.rights import Right


@pytest.fixture(scope="module")
def keys():
    return generate_keypair(bits=128, rng=random.Random(9))


class TestCanonical:
    def test_primitives(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(None) == canonical_bytes(None)

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_sequences(self):
        assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))
        assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])

    def test_sets_order_independent(self):
        assert canonical_bytes({1, 2, 3}) == canonical_bytes({3, 1, 2})

    def test_dataclass_support(self):
        request = AppRequest(request_id=1, application="a", user="u", payload="p")
        same = AppRequest(request_id=1, application="a", user="u", payload="p")
        different = AppRequest(request_id=2, application="a", user="u", payload="p")
        assert canonical_bytes(request) == canonical_bytes(same)
        assert canonical_bytes(request) != canonical_bytes(different)

    def test_enum_support(self):
        assert canonical_bytes(Right.USE) != canonical_bytes(Right.MANAGE)
        assert canonical_bytes(Right.USE) == canonical_bytes(Right.USE)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_digest_stability(self):
        assert message_digest({"k": [1, 2]}) == message_digest({"k": [1, 2]})


class TestSignVerify:
    def test_roundtrip(self, keys):
        signature = sign({"op": "add"}, "alice", keys.private)
        assert verify({"op": "add"}, signature, keys.public)

    def test_tampered_payload_fails(self, keys):
        signature = sign({"op": "add"}, "alice", keys.private)
        assert not verify({"op": "revoke"}, signature, keys.public)

    def test_wrong_key_fails(self, keys):
        other = generate_keypair(bits=128, rng=random.Random(10))
        signature = sign("msg", "alice", keys.private)
        assert not verify("msg", signature, other.public)

    def test_tampered_signature_value_fails(self, keys):
        signature = sign("msg", "alice", keys.private)
        forged = type(signature)(signer=signature.signer, value=signature.value + 1)
        assert not verify("msg", forged, keys.public)

    def test_signature_records_signer(self, keys):
        assert sign("m", "carol", keys.private).signer == "carol"

    def test_dataclass_payload_roundtrip(self, keys):
        request = AppRequest(request_id=7, application="stocks", user="u", payload="T")
        signature = sign(request, "u", keys.private)
        assert verify(request, signature, keys.public)
        tampered = AppRequest(request_id=7, application="stocks", user="evil",
                              payload="T")
        assert not verify(tampered, signature, keys.public)


class TestCrtSigning:
    """Generated keys sign by CRT; the values are the plain ``m^d mod n``."""

    def test_crt_and_plain_signatures_agree_over_generated_keys(self):
        rng = random.Random(14)
        for index in range(24):
            bits = (64, 128, 256)[index % 3]
            pair = generate_keypair(bits=bits, rng=random.Random(1000 + index))
            crt = pair.private
            assert crt.p is not None and crt.p * crt.q == crt.n
            plain = PrivateKey(crt.n, crt.d)
            # Edge digests (0, 1, n-1, multiples of a prime factor) and random ones.
            digests = [0, 1, crt.n - 1, crt.p, crt.q * 3 % crt.n]
            digests += [rng.randrange(crt.n) for _ in range(40)]
            for digest in digests:
                assert crt.power(digest) == pow(digest, crt.d, crt.n) == plain.power(digest)
            for payload in ("msg", {"op": "add", "n": index}, ("t", index, 2.5)):
                by_crt = sign(payload, "alice", crt)
                by_plain = sign(payload, "alice", plain)
                assert by_crt == by_plain
                assert verify(payload, by_crt, pair.public)
                assert verify(payload, by_plain, pair.public)
