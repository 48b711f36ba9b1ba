"""Golden vectors for the binary wire: the contract pinned by bytes.

The round-trip and cross-codec property tests cannot see a change that
alters the bytes on both sides at once.  These vectors can: one
:class:`BinaryEncoder` session over a fixed message list (every wire
type, dense and interned and inline strings, repeats that become
references, nested payloads, negative and multi-byte integers), and the
sealed layout of JSON frames and binary segments under a fixed secret,
clock and nonce sequence.  ``fixtures/wire_golden.json`` was recorded
from the commit before the codec and session fast paths went in
(``python tests/test_net/test_wire_golden.py`` rewrites it); a mixed-
version cell interoperates exactly as long as it still matches.

Re-recorded twice since, explicitly: ``QueryRequest`` gained two trailing
fields (``key_id``, ``wrapped_key``), which moved the three
``QueryRequest`` bodies and the one segment that carries one; the keyed
``QueryRequest`` and the tagged ``SignedMessage`` were appended.  Every
other vector stayed byte-identical
(``test_rerecording_moved_only_the_query_request_vectors``).  Then the
name-service kinds (type numbers 11 and 12) were retired: their two
bodies were dropped and every other vector, the dictionary size
included, stayed byte-identical (the same digest test).

Re-recorded a third time when encoders began defining a name on its
second sight instead of its first: a name's first occurrence is now
``STR_INLINE``, its second the definition, so every later id shifts.
That moved every body but 21 (the keyed ``QueryRequest``, whose strings
were all references already), segments 0 and 1 (which carry bodies 15,
16 and 0), and the dictionary size (20 -> 9); segment 2 and the JSON
frame stayed.  An encoder told it has seen every name reproduces the
previous fixture byte for byte
(``test_second_sight_admission_moved_only_string_tokens``), so the
rule is the only change, and the older digest test still pins that
previous fixture.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.auth.identity import SignedMessage
from repro.auth.signatures import Signature, Tag
from repro.core import messages as m
from repro.core.rights import AclEntry, Right, Version
from repro.net.codec import _WIRE_SLOTS, encode_message
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.session import SessionAuth

FIXTURE = Path(__file__).parent / "fixtures" / "wire_golden.json"

_V = Version(1_700_000_000_123, "m0")
_UPDATE = m.AclUpdate(
    update_id="m0:17", application="app", user="p5@d5.example.org",
    right=Right.MANAGE, grant=False, version=_V, origin="m0",
)
_QUERY_RESPONSE = m.QueryResponse(
    query_id=300, application="app", user="p5@d5.example.org", right=Right.USE,
    verdict="grant", te=42.5, version=_V, manager="m0",
)

MESSAGES = (
    m.QueryRequest(query_id=1, application="app", user="u7", right=Right.USE),
    m.QueryRequest(query_id=127, application="app", user="u01", right=Right.USE),
    m.QueryRequest(query_id=128, application="app", user="u", right=Right.MANAGE),
    _QUERY_RESPONSE,
    _UPDATE,
    m.UpdateMsg(update=_UPDATE),
    m.UpdateAck(update_id="m0:17", acker="m1"),
    m.RevokeNotify(
        application="app", user="u123456", right=Right.USE, version=_V, notify_id=9
    ),
    m.RevokeNotifyAck(notify_id=9, host="h0"),
    m.SyncRequest(requester="m2", applications=("app", "other")),
    m.SyncResponse(
        responder="m0",
        snapshots=(
            ("app", (AclEntry("u7", Right.USE, True, _V), AclEntry("é", Right.USE, False, _V))),
            ("other", ()),
        ),
    ),
    m.Ping(nonce=2**62, sender="m0"),
    m.Pong(nonce=0, sender="m1"),
    m.AdminRequest(
        request_id=5, application="app", subject="p5@d5.example.org",
        right=Right.USE, grant=True, admin="root",
    ),
    m.AdminResponse(request_id=5, accepted=True, reason="", update_id="m0:17"),
    m.AppRequest(request_id=1, application="app", user="p5@d5.example.org", payload={"seq": 1}),
    m.AppRequest(request_id=2, application="app", user="p5@d5.example.org", payload={"seq": 2}),
    m.AppRequest(
        request_id=3, application="app", user="u7",
        payload=(None, True, False, -1, -300, 2.5, "x" * 65, {"k": ("nested", 1)}),
    ),
    m.AppResponse(request_id=1, application="app", allowed=True, result="echo:1", reason="cache"),
    m.AppResponse(request_id=3, application="app", allowed=False, result=None,
                  reason="access denied (denied)"),
    SignedMessage(payload=_QUERY_RESPONSE, signature=Signature(signer="m0", value=2**200 + 12345)),
    # Appended with the pairwise-key answer authentication.
    m.QueryRequest(query_id=129, application="app", user="u7", right=Right.USE,
                   key_id=2**63 + 5, wrapped_key=2**250 + 77),
    SignedMessage(payload=_QUERY_RESPONSE,
                  signature=Tag(signer="m0", key_id=2**63 + 5, value=2**127 + 99)),
)

#: sha256 over the vectors neither of the first two re-recordings may have
#: moved, taken from the fixture as it stood before ``QueryRequest`` grew,
#: minus the two retired name-service bodies: bodies 3-20 and the
#: dictionary size, segments 0 and 2, and the JSON frame.
_UNMOVED_SHA256 = "8c316880875dbe895c7339e745aa623035fcac25929465441ce8703dfe27a3ed"

#: sha256 over the whole fixture as it stood before the second-sight
#: admission rule (``json.dumps(..., sort_keys=True)``).
_FIRST_SIGHT_SHA256 = "223ec3828f3f1d39e979d237ff920c7d68fdaca8a864ee41d437607947b8ecda"

#: The registry order is the binary wire's type numbering: append-only,
#: with ``None`` for a retired slot, never reused.
_WIRE_INDEX = (
    "QueryRequest", "QueryResponse", "AclUpdate", "UpdateMsg", "UpdateAck", "RevokeNotify",
    "RevokeNotifyAck", "SyncRequest", "SyncResponse", "Ping", "Pong", None,
    None, "AdminRequest", "AdminResponse", "AppRequest", "AppResponse",
    "SignedMessage", "Signature", "AclEntry", "Version", "Tag",
)


def _session(clock_values):
    ticks = iter(clock_values)
    return SessionAuth(b"golden-secret", clock=lambda: next(ticks))


class _SeenBefore:
    """A first-sight table that has seen every name: an encoder given it
    defines each name on first sight, as encoders did before the
    second-sight admission rule."""

    class _Any:
        def __eq__(self, other):
            return True

    def __getitem__(self, slot):
        return self._Any()


def vectors(define_on_first_sight: bool = False) -> dict:
    encoder = BinaryEncoder()
    if define_on_first_sight:
        encoder._seen = _SeenBefore()
    bodies = [encoder.encode(message) for message in MESSAGES]
    auth = _session([1_700_000_000.25, 1_700_000_001.5, 1_700_000_002.0, 1_700_000_003.0])
    segments = [
        auth.seal_segment("rt-a", "rt-b", [("c0", "h0", bodies[15]), ("c1", "h0", bodies[16])]),
        auth.seal_segment("rt-a", "rt-b", [("h0", "m0", bodies[0])]),
        auth.seal_segment("rt-é", "rt-b", []),
    ]
    frame = auth.seal("c0", "h0", encode_message(MESSAGES[15]))
    return {
        "bodies": [body.hex() for body in bodies],
        "dictionary_size": encoder.dictionary_size,
        "segments": [segment.hex() for segment in segments],
        "json_frame": frame.hex(),
    }


def test_encoder_and_sealed_layouts_match_the_recorded_bytes():
    golden = json.loads(FIXTURE.read_text())
    got = vectors()
    assert got["bodies"] == golden["bodies"]
    assert got["dictionary_size"] == golden["dictionary_size"]
    assert got["segments"] == golden["segments"]
    assert got["json_frame"] == golden["json_frame"]


def _unmoved_digest(golden: dict) -> str:
    kept = [golden["bodies"][3:21], golden["dictionary_size"],
            golden["segments"][0], golden["segments"][2], golden["json_frame"]]
    return hashlib.sha256(json.dumps(kept).encode("utf-8")).hexdigest()


def test_rerecording_moved_only_the_query_request_vectors():
    assert _unmoved_digest(vectors(define_on_first_sight=True)) == _UNMOVED_SHA256


def test_second_sight_admission_moved_only_string_tokens():
    before = json.dumps(vectors(define_on_first_sight=True), sort_keys=True)
    assert hashlib.sha256(before.encode("utf-8")).hexdigest() == _FIRST_SIGHT_SHA256


def test_wire_type_indices_are_pinned():
    assert tuple(cls and cls.__name__ for cls in _WIRE_SLOTS) == _WIRE_INDEX


def test_recorded_bytes_decode_and_open():
    """The fixture is not just self-consistent: a current decoder and a
    current receiver accept exactly what the recording sender produced."""
    golden = json.loads(FIXTURE.read_text())
    decoder = BinaryDecoder()
    decoded = [decoder.decode(bytes.fromhex(body)) for body in golden["bodies"]]
    assert tuple(decoded) == MESSAGES
    receiver = _session([1_700_000_000.0] * 4)
    sender, recipient, items = receiver.open_segment(bytes.fromhex(golden["segments"][0]))
    assert (sender, recipient) == ("rt-a", "rt-b")
    assert [(src, dst) for src, dst, _body in items] == [("c0", "h0"), ("c1", "h0")]
    assert [body.hex() for _src, _dst, body in items] == golden["bodies"][15:17]
    assert receiver.open_segment(bytes.fromhex(golden["segments"][1]))[2][0][:2] == ("h0", "m0")
    assert receiver.open_segment(bytes.fromhex(golden["segments"][2])) == ("rt-é", "rt-b", [])
    assert receiver.open(bytes.fromhex(golden["json_frame"])) == (
        "c0", "h0", encode_message(MESSAGES[15]),
    )


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(vectors(), indent=1) + "\n")
