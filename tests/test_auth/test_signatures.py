"""Tests for message signing."""

from __future__ import annotations

import dataclasses
import enum
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth.keys import PrivateKey, generate_keypair
from repro.auth.signatures import (
    PAIRWISE_KEY_BYTES,
    canonical_bytes,
    check_tag,
    key_fingerprint,
    make_tag,
    message_digest,
    sign,
    verify,
)
from repro.core.messages import AppRequest
from repro.core.rights import Right
from repro.net.codec import _WIRE_TYPES

from ..test_net.test_codec_property import (
    acl_entries,
    acl_updates,
    signatures,
    versions,
    wire_messages,
)
from ..test_net.test_wire_golden import MESSAGES


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


def reference_canon(value) -> str:
    """The recursive walk ``canonical_bytes`` was before its per-type
    plans — kept here as the definition every signature value rests on."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
        return f"dc:{type(value).__name__}:{reference_canon(fields)}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(reference_canon(v) for v in value)
        return f"seq:[{inner}]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(
            f"{reference_canon(k)}=>{reference_canon(v)}" for k, v in items
        )
        return f"map:{{{inner}}}"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(reference_canon(v) for v in value))
        return f"set:{{{inner}}}"
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


class Colour(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 70000


class Tagged(int):
    """An int subclass: canonicalised under its own type name."""


@dataclasses.dataclass(frozen=True)
class Unsorted:
    zeta: object
    alpha: object
    _mid: object = None


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.sampled_from(list(Right) + list(Colour) + list(Level))
    | st.builds(Tagged, st.integers(min_value=-5, max_value=5))
    | st.just(Empty())
)
_hashable = st.one_of(st.integers(-9, 9), st.text(max_size=3), st.sampled_from(list(Colour)))
_structures = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.dictionaries(_hashable, inner, max_size=3)
        | st.sets(_hashable, max_size=3)
        | st.frozensets(_hashable, max_size=3)
        | st.builds(Unsorted, zeta=inner, alpha=inner, _mid=inner)
    ),
    max_leaves=10,
)
_wire_values = wire_messages | versions | acl_entries | acl_updates | signatures


class TestCanonicalMatchesReference:
    """Byte-identity with the reference walk, so no signature value moves."""

    @settings(deadline=None)
    @given(value=_wire_values)
    def test_every_wire_type(self, value):
        assert canonical_bytes(value) == reference_canon(value).encode("utf-8")

    @settings(deadline=None)
    @given(value=_structures)
    def test_nested_structures_enums_and_foreign_dataclasses(self, value):
        assert canonical_bytes(value) == reference_canon(value).encode("utf-8")

    @settings(deadline=None)
    @given(message=wire_messages, payload=_structures)
    def test_wire_message_carrying_arbitrary_payload(self, message, payload):
        request = AppRequest(request_id=1, application="a", user="u", payload=(message, payload))
        assert canonical_bytes(request) == reference_canon(request).encode("utf-8")

    def test_fixed_examples_cover_the_whole_registry(self):
        seen = set()

        def walk(value):
            seen.add(type(value))
            if dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    walk(getattr(value, field.name))
            elif isinstance(value, (tuple, list)):
                for item in value:
                    walk(item)

        for message in MESSAGES:
            walk(message)
            assert canonical_bytes(message) == reference_canon(message).encode("utf-8")
        assert set(_WIRE_TYPES) <= seen

    def test_unsupported_values_still_rejected_inside_a_plan(self):
        with pytest.raises(TypeError):
            canonical_bytes(Unsorted(zeta=object(), alpha=1))
        with pytest.raises(TypeError):
            canonical_bytes(Unsorted)  # the class, not an instance


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


class TestTags:
    KEY = bytes(range(PAIRWISE_KEY_BYTES))

    def test_roundtrip_and_what_breaks_it(self):
        key_id = key_fingerprint(self.KEY)
        tag = make_tag({"op": "add"}, "m0", self.KEY, key_id)
        assert (tag.signer, tag.key_id) == ("m0", key_id)
        assert check_tag({"op": "add"}, tag, self.KEY)
        assert not check_tag({"op": "revoke"}, tag, self.KEY)
        assert not check_tag({"op": "add"}, tag, self.KEY[::-1])
        assert make_tag({"op": "add"}, "m0", self.KEY, key_id) == tag  # deterministic

    @pytest.mark.parametrize("value", [-1, 1 << 128, "1", None, 0.0, b"\x00" * 16, (1,)])
    def test_values_no_mac_can_be_fail_without_raising(self, value):
        tag = make_tag("payload", "m0", self.KEY, 7)
        assert not check_tag("payload", dataclasses.replace(tag, value=value), self.KEY)

    def test_tag_covers_every_field_of_a_wire_message(self):
        message = MESSAGES[3]  # the QueryResponse
        tag = make_tag(message, "m0", self.KEY, 7)
        for field in dataclasses.fields(message):
            value = getattr(message, field.name)
            moved = dataclasses.replace(
                message, **{field.name: value + 1 if isinstance(value, (int, float)) else "x"}
            )
            assert not check_tag(moved, tag, self.KEY), field.name

    @given(key=st.binary(min_size=PAIRWISE_KEY_BYTES, max_size=PAIRWISE_KEY_BYTES))
    def test_fingerprint_is_a_stable_nonzero_64_bit_name(self, key):
        assert 0 < key_fingerprint(key) < 1 << 64
        assert key_fingerprint(key) == key_fingerprint(bytes(key))
