"""Property tests for the binary wire codec and its interning dictionary.

Three laws on top of the JSON codec's bijection (which
``test_codec_property`` pins):

* the binary codec is a bijection on the same registry —
  ``decode_bin(encode_bin(m)) == m`` for every wire dataclass strategy;
* the two codecs agree — decoding a message's binary bytes and its JSON
  bytes yields *equal* messages, so a mixed-codec cluster sees one
  protocol;
* the per-session dictionary is idempotent on names — re-sending the
  same strings never grows it, and dense-block ``u<i>`` names never
  enter it at all.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import messages as m
from repro.core.rights import Right, Version
from repro.net.codec import CodecError, decode_message, encode_message
from repro.net.codec_bin import (
    DICT_MAX,
    INTERN_MAX,
    BinaryDecoder,
    BinaryEncoder,
    DictionaryError,
    decode_bin,
    encode_bin,
    read_varint,
    write_varint,
)

from .test_codec_property import wire_messages

# The steady-state message mix of a live cell: queries out, responses
# back, revocations fanned to hosts.
_MIX = (
    m.QueryRequest(query_id=1, application="app", user="u7", right=Right.USE),
    m.QueryResponse(
        query_id=1,
        application="app",
        user="u7",
        right=Right.USE,
        verdict="grant",
        te=42.5,
        version=Version(1_700_000_000_123, "m0"),
        manager="m0",
    ),
    m.RevokeNotify(
        application="app",
        user="u7",
        right=Right.USE,
        version=Version(1_700_000_000_456, "m1"),
        notify_id=9,
    ),
)


#: Names one character away from the dense block ``u<i>``: digits that
#: are not ASCII (``int`` would read ``u٣`` and ``u１`` as 3 and 1, and
#: raise on ``u²``), and non-canonical or signed spellings.
NOT_DENSE = ("u²", "u٣", "u１", "u01", "u-1")


class TestVarint:
    @given(value=st.integers(min_value=0, max_value=2**512))
    def test_round_trip(self, value):
        out = bytearray()
        write_varint(out, value)
        got, pos = read_varint(bytes(out), 0)
        assert got == value and pos == len(out)

    def test_truncated_rejected(self):
        out = bytearray()
        write_varint(out, 1 << 40)
        with pytest.raises(CodecError):
            read_varint(bytes(out[:-1]), 0)


class TestBinaryRoundTrip:
    @settings(deadline=None)
    @given(message=wire_messages)
    def test_decode_inverts_encode(self, message):
        decoded = decode_bin(encode_bin(message))
        assert decoded == message
        assert type(decoded) is type(message)

    @settings(deadline=None)
    @given(message=wire_messages)
    def test_binary_and_json_decode_to_equal_messages(self, message):
        assert decode_bin(encode_bin(message)) == decode_message(
            encode_message(message)
        )

    @settings(deadline=None)
    @given(messages=st.lists(wire_messages, min_size=1, max_size=8))
    @example(messages=[m.Ping(nonce=1, sender=name) for name in NOT_DENSE])
    def test_stateful_pair_round_trips_a_stream(self, messages):
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        for message in messages:
            assert decoder.decode(encoder.encode(message)) == message
        assert encoder.dictionary_size == decoder.dictionary_size

    def test_malformed_inputs_rejected(self):
        with pytest.raises(CodecError):
            decode_bin(b"")
        with pytest.raises(CodecError):
            decode_bin(b"\xff")  # unknown tag
        with pytest.raises(CodecError):
            decode_bin(encode_bin(_MIX[0]) + b"\x00")  # trailing bytes
        with pytest.raises(CodecError):
            decode_bin(encode_bin(_MIX[0])[:-2])  # truncated
        with pytest.raises(CodecError):
            decode_bin(b"\x03\x04")  # a bare int is not a wire message
        with pytest.raises(CodecError):
            encode_bin({"plain": "dict"})  # not a wire message
        with pytest.raises(CodecError):
            encode_bin(m.AppRequest(request_id=1, application="a", user="u", payload=object()))

    def test_unknown_dictionary_reference_is_stream_fatal(self):
        # A reference the decoder never saw a definition for can only
        # mean lost frames: DictionaryError, distinct from per-message
        # CodecError, so the transport resets the connection.
        encoder = BinaryEncoder()
        blob_def = encoder.encode(m.Ping(nonce=1, sender="somebody"))
        blob_ref = encoder.encode(m.Ping(nonce=2, sender="somebody"))
        fresh = BinaryDecoder()
        with pytest.raises(DictionaryError):
            fresh.decode(blob_ref)  # skipped the defining frame
        assert isinstance(DictionaryError("x"), CodecError)
        # In order, both decode.
        ordered = BinaryDecoder()
        assert ordered.decode(blob_def).sender == "somebody"
        assert ordered.decode(blob_ref).sender == "somebody"


class TestInterningDictionary:
    @settings(deadline=None)
    @given(messages=st.lists(wire_messages, min_size=1, max_size=6))
    def test_resending_the_same_messages_never_grows_the_dictionary(self, messages):
        encoder = BinaryEncoder()
        decoder = BinaryDecoder()
        for message in messages:
            decoder.decode(encoder.encode(message))
        size = encoder.dictionary_size
        for _ in range(3):
            for message in messages:
                decoder.decode(encoder.encode(message))
        assert encoder.dictionary_size == size
        assert decoder.dictionary_size == size

    def test_repeat_names_become_references_and_shrink(self):
        encoder = BinaryEncoder()
        first = encoder.encode(_MIX[1])
        again = encoder.encode(_MIX[1])
        assert len(again) < len(first)
        assert encoder.dictionary_size > 0

    @given(index=st.integers(min_value=0, max_value=10**12))
    def test_dense_block_names_never_enter_the_dictionary(self, index):
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        ping = m.Ping(nonce=1, sender=f"u{index}")
        assert decoder.decode(encoder.encode(ping)) == ping
        assert encoder.dictionary_size == 0
        assert decoder.dictionary_size == 0

    def test_non_canonical_dense_lookalikes_are_interned_not_dense(self):
        # "u01" must not alias "u1" (the ids.py canonical-decimal rule).
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        for name in ("u01", "u1x", "u", "v3", "u-1"):
            ping = m.Ping(nonce=1, sender=name)
            assert decoder.decode(encoder.encode(ping)) == ping
        assert encoder.dictionary_size == 5

    @pytest.mark.parametrize("name", NOT_DENSE)
    def test_non_ascii_digits_neither_alias_nor_crash_either_codec(self, name):
        # "u٣" used to travel as dense index 3 and decode as "u3" — another
        # principal — and "u²" raised ValueError out of ``encode``.
        request = m.QueryRequest(query_id=1, application="app", user=name, right=Right.USE)
        assert decode_bin(encode_bin(request)) == request
        assert decode_message(encode_message(request)) == request
        encoder, decoder = BinaryEncoder(), BinaryDecoder()
        for _ in range(2):  # definition, then reference
            assert decoder.decode(encoder.encode(request)).user == name
        assert encoder.dictionary_size == decoder.dictionary_size == 2  # "app" + the name

    def test_oversized_strings_stay_inline(self):
        encoder = BinaryEncoder()
        long_name = "x" * (INTERN_MAX + 1)
        for _ in range(2):
            assert decode_bin(encoder.encode(m.Ping(nonce=1, sender=long_name))) or True
        assert encoder.dictionary_size == 0
        assert DICT_MAX > 0  # the cap exists; exhausting it is too slow here


#: ``repro bench wire_codec``'s steady-state mix: eight dense users,
#: three managers, a fresh version and ``te`` per triple.
_BENCH_MIX = tuple(
    message
    for i in range(64)
    for message in (
        m.QueryRequest(query_id=i, application="app", user=f"u{i % 8}", right=Right.USE),
        m.QueryResponse(
            query_id=i, application="app", user=f"u{i % 8}", right=Right.USE,
            verdict="grant", te=float(i),
            version=Version(1_700_000_000_000 + i, f"m{i % 3}"), manager=f"m{i % 3}",
        ),
        m.RevokeNotify(
            application="app", user=f"u{i % 8}", right=Right.USE,
            version=Version(1_700_000_000_000 + i, f"m{i % 3}"), notify_id=i,
        ),
    )
)


def _steady_state_ratio(mix) -> float:
    """JSON bytes over binary bytes for one pass over ``mix``, after one
    pass has warmed the session dictionary."""
    encoder = BinaryEncoder()
    for message in mix:
        encoder.encode(message)
    binary = sum(len(encoder.encode(message)) for message in mix)
    return sum(len(encode_message(message)) for message in mix) / binary


class TestSizeWin:
    def test_steady_state_bytes_beat_json_by_the_gate_margin(self):
        # The shape the wire_codec bench gates, on the standard mix.
        assert _steady_state_ratio(_MIX) >= 2.5

    def test_bench_mix_beats_json_by_the_gate_margin(self):
        # ``repro bench wire_codec``'s own mix and bytes gate.
        assert _steady_state_ratio(_BENCH_MIX) >= 2.5
