"""Property tests for the wire codec and length-prefix framing.

Two laws the socket backend stands on:

* the tagged-JSON codec is a bijection on wire messages —
  ``decode(encode(m)) == m`` — and canonical — re-encoding a decoded
  message reproduces the exact bytes, so MAC verification never
  depends on field order or whitespace;
* the frame reader recovers every body exactly once from a stream cut
  at arbitrary points — partial prefixes, partial bodies, and many
  frames per chunk all included.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.auth.identity import SignedMessage
from repro.auth.signatures import Signature, Tag
from repro.core import messages as m
from repro.core.rights import AclEntry, Right, Version
from repro.net.codec import (
    MAX_FRAME,
    CodecError,
    FrameError,
    FrameReader,
    decode_message,
    encode_frame,
    encode_message,
)

# -- strategies ----------------------------------------------------------------

names = st.text(max_size=12)
ids = st.integers(min_value=0, max_value=2**62)
rights = st.sampled_from(list(Right))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
versions = st.builds(Version, counter=ids, origin=names)
acl_entries = st.builds(
    AclEntry, user=names, right=rights, granted=st.booleans(), version=versions
)

# Application payloads are opaque (``Any``) but must survive the codec:
# JSON scalars, tuples (JSON lists decode as tuples), and tagged maps
# with hashable keys.
scalars = st.none() | st.booleans() | ids | finite_floats | names
payloads = st.recursive(
    scalars,
    lambda inner: st.tuples(inner, inner) | st.dictionaries(scalars, inner, max_size=3),
    max_leaves=8,
)

signatures = st.builds(
    Signature, signer=names, value=st.integers(min_value=0, max_value=2**512)
) | st.builds(Tag, signer=names, key_id=ids, value=st.integers(min_value=0, max_value=2**128))
acl_updates = st.builds(
    m.AclUpdate,
    update_id=names,
    application=names,
    user=names,
    right=rights,
    grant=st.booleans(),
    version=versions,
    origin=names,
)

bare_messages = st.one_of(
    st.builds(m.QueryRequest, query_id=ids, application=names, user=names, right=rights),
    st.builds(
        m.QueryRequest, query_id=ids, application=names, user=names, right=rights,
        key_id=ids, wrapped_key=st.integers(min_value=0, max_value=2**512),
    ),
    st.builds(
        m.QueryResponse,
        query_id=ids,
        application=names,
        user=names,
        right=rights,
        verdict=st.sampled_from(("grant", "deny")),
        te=finite_floats,
        version=versions,
        manager=names,
    ),
    st.builds(m.UpdateMsg, update=acl_updates),
    st.builds(m.UpdateAck, update_id=names, acker=names),
    st.builds(
        m.RevokeNotify,
        application=names,
        user=names,
        right=rights,
        version=versions,
        notify_id=ids,
    ),
    st.builds(m.RevokeNotifyAck, notify_id=ids, host=names),
    st.builds(m.SyncRequest, requester=names, applications=st.tuples(names, names)),
    st.builds(
        m.SyncResponse,
        responder=names,
        snapshots=st.lists(
            st.tuples(names, st.lists(acl_entries, max_size=3).map(tuple)), max_size=3
        ).map(tuple),
    ),
    st.builds(m.Ping, nonce=ids, sender=names),
    st.builds(m.Pong, nonce=ids, sender=names),
    st.builds(m.NameLookup, lookup_id=ids, application=names),
    st.builds(
        m.NameResult, lookup_id=ids, application=names, managers=st.tuples(names, names)
    ),
    st.builds(
        m.AdminRequest,
        request_id=ids,
        application=names,
        subject=names,
        right=rights,
        grant=st.booleans(),
        admin=names,
    ),
    st.builds(
        m.AdminResponse, request_id=ids, accepted=st.booleans(), reason=names, update_id=names
    ),
    st.builds(m.AppRequest, request_id=ids, application=names, user=names, payload=payloads),
    st.builds(
        m.AppResponse,
        request_id=ids,
        application=names,
        allowed=st.booleans(),
        result=payloads,
        reason=names,
    ),
)

wire_messages = bare_messages | st.builds(
    SignedMessage, payload=bare_messages, signature=signatures
)


# -- codec laws ----------------------------------------------------------------


class TestCodecRoundTrip:
    @settings(deadline=None)
    @given(message=wire_messages)
    def test_decode_inverts_encode_and_bytes_are_canonical(self, message):
        encoded = encode_message(message)
        decoded = decode_message(encoded)
        assert decoded == message
        assert type(decoded) is type(message)
        assert encode_message(decoded) == encoded

    def test_unknown_tag_and_fields_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b'{"t":"NotAMessage","f":{}}')
        with pytest.raises(CodecError):
            decode_message(b'{"f":{"nonce":1,"sender":"a","extra":2},"t":"Ping"}')
        with pytest.raises(CodecError):
            decode_message(b'{"f":{"nonce":1},"t":"Ping"}')  # missing field
        with pytest.raises(CodecError):
            decode_message(b"not json at all")
        with pytest.raises(CodecError):
            decode_message(b'"just a string"')  # not a wire message

    def test_unregistered_type_rejected_on_encode(self):
        with pytest.raises(CodecError):
            encode_message({"plain": "dict"})


# -- framing laws --------------------------------------------------------------


class TestFraming:
    @settings(deadline=None)
    @given(
        bodies=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_reader_recovers_bodies_across_arbitrary_chunking(self, bodies, data):
        stream = b"".join(encode_frame(body) for body in bodies)
        cuts = sorted(
            data.draw(
                st.lists(st.integers(0, len(stream)), max_size=12),
                label="cut points",
            )
        )
        reader = FrameReader()
        recovered = []
        previous = 0
        for cut in cuts + [len(stream)]:
            recovered.extend(reader.feed(stream[previous:cut]))
            previous = cut
        assert recovered == bodies
        assert reader.pending == 0

    def test_oversized_body_rejected_on_encode(self):
        with pytest.raises(FrameError):
            encode_frame(b"x" * (MAX_FRAME + 1))

    def test_oversized_length_prefix_poisons_reader(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            reader.feed(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(FrameError):
            reader.feed(b"")  # poisoned: every later feed fails too

    def test_zero_length_frame_rejected(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            reader.feed(struct.pack(">I", 0) + b"rest")

    def test_many_small_frames_in_one_buffer_is_linear(self):
        # Regression: the reader used to `del buffer[:n]` per frame,
        # shifting the whole tail each time — O(n^2) over a chunk of
        # 10k concatenated frames (exactly the coalesced-segment shape).
        # With the offset cursor this completes in well under a second;
        # the quadratic version took tens of seconds.
        import time

        bodies = [b"x%06d" % i for i in range(10_000)]
        stream = b"".join(encode_frame(body) for body in bodies)
        reader = FrameReader()
        begin = time.perf_counter()
        recovered = reader.feed(stream)
        elapsed = time.perf_counter() - begin
        assert recovered == bodies
        assert reader.pending == 0
        assert elapsed < 2.0, f"frame feed took {elapsed:.2f}s — compaction regressed"

    def test_cursor_persists_across_feeds_with_partial_tail(self):
        # A feed ending mid-frame leaves the partial bytes pending; the
        # next feed completes it and pending returns to zero.
        first = encode_frame(b"alpha")
        second = encode_frame(b"beta")
        reader = FrameReader()
        got = reader.feed(first + second[:3])
        assert got == [b"alpha"]
        assert reader.pending == 3
        assert reader.feed(second[3:]) == [b"beta"]
        assert reader.pending == 0
