"""Tagged-JSON message codec and length-prefixed framing.

The sim backend passes message dataclasses by reference; the socket
backend needs bytes.  This module is the bijection between the two:

* :func:`encode_message` / :func:`decode_message` — a tagged JSON
  encoding of every record in the wire protocol
  (:mod:`repro.core.messages`, plus :class:`~repro.auth.SignedMessage`
  and its :class:`~repro.auth.Signature` or :class:`~repro.auth.Tag`,
  and the embedded value types :class:`~repro.core.rights.Version` and
  :class:`~repro.core.rights.AclEntry`).  Encoding is canonical —
  sorted keys, minimal separators — so equal messages always produce
  identical bytes and re-encoding a decoded message is byte-stable
  (the property the Hypothesis suite pins).
* :func:`encode_frame` / :class:`FrameReader` — 4-byte big-endian
  length prefix over a TCP stream, with an incremental reader that
  tolerates arbitrary fragmentation and concatenation and rejects
  oversized frames before buffering them.

Normalisation: JSON has no tuple, so sequences decode as tuples (every
wire dataclass already declares ``Tuple`` fields) and plain dicts are
carried under an explicit ``!map`` tag.  Integers and floats survive
exactly (JSON round-trips Python floats via ``repr``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Optional, Type

from ..auth.identity import SignedMessage
from ..auth.signatures import Signature, Tag
from ..core import messages as _messages
from ..core.rights import AclEntry, Right, Version

__all__ = [
    "CodecError",
    "FrameError",
    "MAX_FRAME",
    "encode_message",
    "decode_message",
    "encode_frame",
    "FrameReader",
]


class CodecError(ValueError):
    """Raised when a payload cannot be encoded or decoded."""


class FrameError(ValueError):
    """Raised on malformed framing (oversized or corrupt length prefix)."""


#: Hard ceiling on a single frame body, in bytes.  A full ACL sync of a
#: large cell fits comfortably; anything bigger is a protocol error (or
#: an attack) and is rejected *before* it is buffered.
MAX_FRAME = 1 << 20

#: Consumed-prefix size at which :class:`FrameReader` compacts its
#: buffer.  Below this the cursor just advances; one memmove per
#: ~64 KiB consumed keeps steady-state cost O(bytes), not O(frames^2).
_COMPACT_BYTES = 1 << 16

#: Every dataclass that may appear on the wire, top-level or embedded, at
#: its binary type number.  Append-only: a retired kind leaves ``None`` in
#: its slot, which is never reused (11 and 12 carried the name-service
#: lookup and its answer), and a frame naming it is a :class:`CodecError`.
_WIRE_SLOTS: List[Optional[Type[Any]]] = [
    _messages.QueryRequest,
    _messages.QueryResponse,
    _messages.AclUpdate,
    _messages.UpdateMsg,
    _messages.UpdateAck,
    _messages.RevokeNotify,
    _messages.RevokeNotifyAck,
    _messages.SyncRequest,
    _messages.SyncResponse,
    _messages.Ping,
    _messages.Pong,
    None,
    None,
    _messages.AdminRequest,
    _messages.AdminResponse,
    _messages.AppRequest,
    _messages.AppResponse,
    SignedMessage,
    Signature,
    AclEntry,
    Version,
    Tag,
]

_WIRE_TYPES: List[Type[Any]] = [cls for cls in _WIRE_SLOTS if cls is not None]
_REGISTRY: Dict[str, Type[Any]] = {cls.__name__: cls for cls in _WIRE_TYPES}


def _encode_value(value: Any) -> Any:
    """Lower a message field to a JSON-serialisable value."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        # bools are handled above; JSON ints are arbitrary precision, so
        # RSA signature values survive untouched.
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Right):
        return {"t": "Right", "v": value.value}
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _REGISTRY:
            raise CodecError(f"unregistered wire type: {name}")
        return {
            "t": name,
            "f": {f.name: _encode_value(getattr(value, f.name)) for f in fields(value)},
        }
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        return {"t": "!map", "v": [[_encode_value(k), _encode_value(v)] for k, v in value.items()]}
    raise CodecError(f"cannot encode {type(value).__name__} value: {value!r}")


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return tuple(_decode_value(v) for v in value)
    if isinstance(value, dict):
        tag = value.get("t")
        if tag == "Right":
            return Right(value["v"])
        if tag == "!map":
            return {_decode_value(k): _decode_value(v) for k, v in value["v"]}
        cls = _REGISTRY.get(tag)
        if cls is None:
            raise CodecError(f"unknown wire tag: {tag!r}")
        raw = value.get("f")
        if not isinstance(raw, dict):
            raise CodecError(f"malformed {tag} body: {raw!r}")
        names = {f.name for f in fields(cls)}
        unknown = set(raw) - names
        if unknown:
            raise CodecError(f"unknown {tag} fields: {sorted(unknown)}")
        try:
            return cls(**{k: _decode_value(v) for k, v in raw.items()})
        except TypeError as exc:  # missing required fields
            raise CodecError(f"malformed {tag} body: {exc}") from None
    raise CodecError(f"cannot decode value: {value!r}")


def encode_message(message: Any) -> bytes:
    """Encode a wire dataclass to canonical JSON bytes."""
    name = type(message).__name__
    if name not in _REGISTRY:
        raise CodecError(f"not a wire message: {name}")
    lowered = _encode_value(message)
    return json.dumps(lowered, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Any:
    """Decode canonical JSON bytes back to the wire dataclass."""
    try:
        lowered = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable frame body: {exc}") from None
    decoded = _decode_value(lowered)
    if type(decoded).__name__ not in _REGISTRY:
        raise CodecError(f"frame body is not a wire message: {decoded!r}")
    return decoded


def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame body of {len(body)} bytes exceeds MAX_FRAME")
    return struct.pack(">I", len(body)) + body


class FrameReader:
    """Incremental length-prefix deframer.

    Feed it arbitrary byte chunks as they arrive off a stream; it
    returns each completed frame body exactly once, tolerating partial
    prefixes, partial bodies, and many frames per chunk.  A declared
    length above :data:`MAX_FRAME` (or an empty frame) raises
    :class:`FrameError` immediately — before any of the body is
    buffered — after which the reader is poisoned and the connection
    must be dropped.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0
        self._poisoned = False

    def feed(self, data: bytes) -> List[bytes]:
        if self._poisoned:
            raise FrameError("reader poisoned by an earlier framing error")
        self._buffer.extend(data)
        # Consume via a cursor and compact once per feed: deleting the
        # head of the bytearray per frame would shift the whole tail
        # each time — O(n^2) when one chunk carries thousands of small
        # frames (exactly the coalesced-segment shape).
        buffer = self._buffer
        offset = self._offset
        frames: List[bytes] = []
        try:
            while True:
                if len(buffer) - offset < 4:
                    return frames
                (length,) = struct.unpack_from(">I", buffer, offset)
                if length == 0 or length > MAX_FRAME:
                    self._poisoned = True
                    raise FrameError(f"bad frame length {length}")
                if len(buffer) - offset < 4 + length:
                    return frames
                frames.append(bytes(buffer[offset + 4 : offset + 4 + length]))
                offset += 4 + length
        finally:
            # Periodic compaction: drop the consumed prefix only when it
            # is the whole buffer (free) or large enough to be worth one
            # memmove; otherwise the cursor persists across feeds.
            if offset == len(buffer):
                del buffer[:]
                offset = 0
            elif offset >= _COMPACT_BYTES:
                del buffer[:offset]
                offset = 0
            self._offset = offset
