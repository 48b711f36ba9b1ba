"""Compact binary wire codec with a per-session interning dictionary.

The tagged-JSON codec (:mod:`repro.net.codec`) is self-describing and
canonical, which suits fixtures and trace dumps — but it ships every
field name, every type tag, and every principal name as text on every
message.  This module is the codec the live wire uses: struct-packed
frames over the same ``_WIRE_SLOTS`` registry with

* **positional fields** — a message is its registry index plus its
  field values in declaration order; field names never hit the wire;
* **varint integers** (LEB128, zigzag for signed) — query ids, nonces,
  and HLC counters are 1–9 bytes instead of decimal text, and Python's
  arbitrary precision survives (RSA signature values included);
* a **per-session string dictionary** — the second occurrence of a name
  on a stream is a definition (``STR_DEF`` + UTF-8 bytes, id assigned
  implicitly in order), every later occurrence a 2-byte reference
  (``STR_REF`` + varint id).  Manager, application, origin and verdict
  strings, and every principal a stream names twice, collapse to small
  integers after their first frames;
* **dense-block names** — names matching ``u<i>`` (canonical decimal,
  mirroring :class:`repro.core.ids.Interner`'s arithmetic dense prefix)
  are encoded as ``STR_DENSE`` + varint ``i`` with *no dictionary entry
  at all*, so a million-principal workload ships integers end to end.

Statefulness and loss
---------------------
A :class:`BinaryEncoder`/:class:`BinaryDecoder` pair shares dictionary
state *implicitly through the byte stream*: definitions are assigned
ids in encode order and replayed in decode order, so the pair is
consistent exactly when the decoder sees every encoded frame, in order
— which TCP guarantees per connection.  The transport therefore scopes
one coder pair to one connection per direction and resets both sides by
reconnecting; a reference to an id the decoder never learned raises
:class:`DictionaryError`, which the transport treats as fatal for the
*connection* (not the process), forcing exactly that reset.

A name enters the dictionary on its *second* sight, not its first.  The
first goes out as ``STR_INLINE`` (the same bytes a definition costs)
and is remembered only as the CRC32 of its UTF-8 bytes in a fixed
table of :data:`SEEN_SLOTS` 32-bit slots; a name whose checksum already
sits in its slot is defined.  A served miss names a principal once per
connection, so under a define-on-first-sight rule every principal a
cell ever served held an entry in every dictionary it crossed until
:data:`DICT_MAX`, after which no new name compressed at all.  Under
this rule a one-off name costs the encoder nothing and the decoder
nothing, while a name that recurs is a reference from its third sight
on.  A slot collision only moves a name between inline and definition,
which the decoder follows from the tags alone, so the rule needs no
agreement between peers: a decoder reads a stream whose every first
occurrence is a definition exactly as before.  The checksum, not
``hash()``, keeps the bytes identical in every process.

Given the process's :class:`~repro.core.ids.Interner`
(``decoder.interner``), a decoded definition or short inline text the
interner already holds *is* the interner's string, so a principal named
on many connections is one string in memory.  The decoder never inserts
into the interner, so hostile names cannot grow it; equal strings
decode either way.

On a real link use a persistent encoder/decoder pair; a fresh pair per
message (the local-loopback normalisation path) is stateless.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple, Type
from zlib import crc32

from ..core.ids import Interner, dense_index
from ..core.rights import Right
from .codec import CodecError, _WIRE_SLOTS

__all__ = [
    "BinaryEncoder",
    "BinaryDecoder",
    "DictionaryError",
    "write_varint",
    "read_varint",
    "DENSE_PREFIX",
    "INTERN_MAX",
    "DICT_MAX",
    "SEEN_SLOTS",
]


class DictionaryError(CodecError):
    """A frame referenced a dictionary id this session never defined.

    Stream-fatal by design: the encoder and decoder dictionaries have
    diverged (a defining frame was lost), so the transport must drop
    the connection and let the reconnect reset both sides.
    """


#: Dense-block prefix, mirroring the mega-population interner: names
#: ``u0 .. u<n>`` in canonical decimal carry their index arithmetically.
DENSE_PREFIX = "u"

#: Strings longer than this (UTF-8 bytes) are sent inline, not interned
#: — one-off payload text must not crowd the session dictionary.
INTERN_MAX = 64

#: Hard cap on dictionary entries per session; beyond it new strings go
#: inline so a hostile peer cannot grow receiver memory without bound.
DICT_MAX = 65536

#: Slots of an encoder's first-sight table (a power of two): the CRC32
#: of a name seen once, indexed by its low bits.
SEEN_SLOTS = 4096

_SEEN_MASK = SEEN_SLOTS - 1
_NO_SIGHTINGS = bytes(4 * SEEN_SLOTS)

# -- value tags ----------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03       # zigzag varint, arbitrary precision
_T_FLOAT = 0x04     # 8-byte big-endian IEEE double
_T_STR_DEF = 0x05   # varint byte length + UTF-8; id assigned implicitly
_T_STR_REF = 0x06   # varint dictionary id
_T_STR_DENSE = 0x07  # varint i  ->  f"{DENSE_PREFIX}{i}"
_T_STR_INLINE = 0x08  # varint byte length + UTF-8; never interned
_T_LIST = 0x09      # varint count + items (decodes as tuple)
_T_MAP = 0x0A       # varint count + key/value pairs (decodes as dict)
_T_RIGHT = 0x0B     # varint index into _RIGHT_LIST
_T_MSG = 0x0C       # varint registry index + fields in declaration order

_RIGHT_LIST: Tuple[Right, ...] = tuple(Right)

#: Slot order is the wire contract: append-only, same list the JSON codec
#: registers, so both codecs accept exactly the same types.  A retired
#: slot keeps ``(None, ())``.
_TYPE_INDEX: Dict[Type[Any], int] = {
    cls: i for i, cls in enumerate(_WIRE_SLOTS) if cls is not None
}
_TYPE_FIELDS: List[Tuple[Optional[Type[Any]], Tuple[str, ...]]] = [
    (cls, tuple(f.name for f in fields(cls)) if cls is not None else ())
    for cls in _WIRE_SLOTS
]

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from


def write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as LEB128."""
    if value < 0x80:  # ids, lengths, counts: almost every varint on the wire
        out.append(value)
        return
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read a LEB128 varint at ``pos``; returns ``(value, next_pos)``."""
    try:
        result = data[pos]
        if result < 0x80:
            return result, pos + 1
    except IndexError:
        raise CodecError("truncated varint") from None
    result = 0
    shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CodecError("truncated varint") from None


def _fields_getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """One call returning a message's field values in declaration order."""
    getter = attrgetter(*names)
    if len(names) == 1:  # attrgetter of one name returns the bare value
        return lambda value: (getter(value),)
    return getter


def _message_head(index: int) -> bytes:
    head = bytearray((_T_MSG,))
    write_varint(head, index)
    return bytes(head)


#: Per wire type: its ``MSG`` tag + registry index, pre-rendered, and the
#: getter of its field values.
_ENCODE_PLAN: Dict[Type[Any], Tuple[bytes, Callable[[Any], Tuple[Any, ...]]]] = {
    cls: (_message_head(index), _fields_getter(names))
    for index, (cls, names) in enumerate(_TYPE_FIELDS)
    if cls is not None
}


class BinaryEncoder:
    """Stateful message -> bytes encoder for one stream direction."""

    __slots__ = ("_dict", "_seen")

    def __init__(self) -> None:
        self._dict: Dict[str, int] = {}
        #: CRC32 of names seen once, by low bits; made on the first such
        #: name, so a one-shot encode of a message without one never
        #: allocates it.
        self._seen: Optional[array] = None

    @property
    def dictionary_size(self) -> int:
        """Interned entries so far (dense-block names never count)."""
        return len(self._dict)

    def encode(self, message: Any) -> bytes:
        """Encode one wire dataclass; advances the session dictionary."""
        if type(message) not in _TYPE_INDEX:
            raise CodecError(f"not a wire message: {type(message).__name__}")
        out = bytearray()
        self._value(out, message)
        return bytes(out)

    def _string(self, out: bytearray, value: str) -> None:
        # Dictionary first: a dense name is never interned, so a hit here
        # is exactly a name ``dense_index`` would have turned away.
        sid = self._dict.get(value)
        if sid is not None:
            out.append(_T_STR_REF)
            write_varint(out, sid)
            return
        dense = dense_index(value, DENSE_PREFIX)
        if dense >= 0:
            out.append(_T_STR_DENSE)
            write_varint(out, dense)
            return
        raw = value.encode("utf-8")
        if len(raw) <= INTERN_MAX and len(self._dict) < DICT_MAX:
            seen = self._seen
            if seen is None:
                seen = self._seen = array("I", _NO_SIGHTINGS)
            check = crc32(raw)
            slot = check & _SEEN_MASK
            if seen[slot] == check:  # second sight: define it
                self._dict[value] = len(self._dict)
                out.append(_T_STR_DEF)
            else:
                seen[slot] = check
                out.append(_T_STR_INLINE)
        else:
            out.append(_T_STR_INLINE)
        write_varint(out, len(raw))
        out += raw

    def _value(self, out: bytearray, value: Any) -> None:
        if value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif type(value) is str:
            self._string(out, value)
        elif type(value) is int:
            out.append(_T_INT)
            write_varint(out, value << 1 if value >= 0 else ((-value) << 1) | 1)
        elif type(value) is float:
            out.append(_T_FLOAT)
            out += _pack_double(value)
        else:
            plan = _ENCODE_PLAN.get(type(value))
            if plan is not None:
                head, values_of = plan
                out += head
                for item in values_of(value):
                    self._value(out, item)
            elif isinstance(value, Right):
                out.append(_T_RIGHT)
                write_varint(out, value.index)
            elif isinstance(value, (list, tuple)):
                out.append(_T_LIST)
                write_varint(out, len(value))
                for item in value:
                    self._value(out, item)
            elif isinstance(value, dict):
                out.append(_T_MAP)
                write_varint(out, len(value))
                for key, item in value.items():
                    self._value(out, key)
                    self._value(out, item)
            elif isinstance(value, bool):  # bool subclasses int; rebind
                out.append(_T_TRUE if value else _T_FALSE)
            elif isinstance(value, (int, str, float)):  # odd subclasses
                self._value(
                    out,
                    str(value) if isinstance(value, str)
                    else int(value) if isinstance(value, int)
                    else float(value),
                )
            else:
                raise CodecError(
                    f"cannot encode {type(value).__name__} value: {value!r}"
                )


class BinaryDecoder:
    """Stateful bytes -> message decoder mirroring one encoder."""

    __slots__ = ("_dict", "interner")

    def __init__(self) -> None:
        self._dict: List[str] = []
        #: Names it holds decode as its own copies (looked up, never added).
        self.interner: Optional[Interner] = None

    def decode(self, data: bytes) -> Any:
        """Decode one message body; advances the session dictionary.

        Raises :class:`CodecError` on malformed input and
        :class:`DictionaryError` (stream-fatal) on an unknown
        dictionary reference.
        """
        message, pos = self._value(data, 0)
        if pos != len(data):
            raise CodecError(f"{len(data) - pos} trailing bytes after message")
        if type(message) not in _TYPE_INDEX:
            raise CodecError(f"frame body is not a wire message: {message!r}")
        return message

    def _value(self, data: bytes, pos: int) -> Tuple[Any, int]:
        try:
            tag = data[pos]
        except IndexError:
            raise CodecError("truncated frame body") from None
        pos += 1
        # Steady-state traffic is references, integers and messages.
        if tag == _T_STR_REF:
            sid, pos = read_varint(data, pos)
            if sid >= len(self._dict):
                raise DictionaryError(
                    f"unknown dictionary id {sid} (have {len(self._dict)})"
                )
            return self._dict[sid], pos
        if tag == _T_INT:
            raw, pos = read_varint(data, pos)
            return (-(raw >> 1) if raw & 1 else raw >> 1), pos
        if tag == _T_MSG:
            index, pos = read_varint(data, pos)
            if index >= len(_TYPE_FIELDS):
                raise CodecError(f"unknown wire type index {index}")
            cls, names = _TYPE_FIELDS[index]
            if cls is None:
                raise CodecError(f"retired wire type index {index}")
            values = []
            for _ in names:
                value, pos = self._value(data, pos)
                values.append(value)
            try:
                return cls(*values), pos
            except (TypeError, ValueError) as exc:
                raise CodecError(f"malformed {cls.__name__} body: {exc}") from None
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_FLOAT:
            if pos + 8 > len(data):
                raise CodecError("truncated float")
            return _unpack_double(data, pos)[0], pos + 8
        if tag in (_T_STR_DEF, _T_STR_INLINE):
            length, pos = read_varint(data, pos)
            end = pos + length
            if end > len(data):
                raise CodecError("truncated string")
            try:
                text = bytes(data[pos:end]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CodecError(f"undecodable string: {exc}") from None
            if self.interner is not None and length <= INTERN_MAX:
                text = self.interner.canonical(text)
            if tag == _T_STR_DEF:
                if len(self._dict) >= DICT_MAX:
                    raise CodecError("dictionary overflow")
                self._dict.append(text)
            return text, end
        if tag == _T_STR_DENSE:
            index, pos = read_varint(data, pos)
            return f"{DENSE_PREFIX}{index}", pos
        if tag == _T_LIST:
            count, pos = read_varint(data, pos)
            if count > len(data) - pos:
                raise CodecError("list length exceeds frame")
            items = []
            for _ in range(count):
                item, pos = self._value(data, pos)
                items.append(item)
            return tuple(items), pos
        if tag == _T_MAP:
            count, pos = read_varint(data, pos)
            if count > len(data) - pos:
                raise CodecError("map length exceeds frame")
            mapping = {}
            for _ in range(count):
                key, pos = self._value(data, pos)
                value, pos = self._value(data, pos)
                mapping[key] = value
            return mapping, pos
        if tag == _T_RIGHT:
            index, pos = read_varint(data, pos)
            if index >= len(_RIGHT_LIST):
                raise CodecError(f"unknown right index {index}")
            return _RIGHT_LIST[index], pos
        raise CodecError(f"unknown value tag 0x{tag:02x}")
