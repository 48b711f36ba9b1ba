"""HMAC session authentication for the socket transport.

Per the sidecar auth ADR (SNIPPETS.md, ADR-002 option C): the RSA
signatures inside the protocol authenticate *principals* end-to-end
(a manager signing its query responses, a user signing an admin
request); this layer authenticates the *session* hop-by-hop, so a
localhost cell is not an open relay.

Every frame on the live wire is a **segment**
(:meth:`SessionAuth.seal_segment` / :meth:`SessionAuth.open_segment`):
every message a flush produces for one endpoint, under one nonce and
one HMAC-SHA256 over the whole batch, keyed by the cell's shared
secret.  The MAC therefore amortises across the batch — fan-out of k
messages costs one SHA-256 pass over their concatenation instead of k
passes — while replay protection is per *segment*, and no individual
message can be spliced out because only the whole segment
authenticates.  Layout after the 32-byte mac (all integers LEB128
varints, strings varint-length UTF-8)::

    sender | recipient | nonce | issued_at(8B >d) | count |
    (src | dst | body)*count

Receivers enforce three properties, each with its own rejection
counter:

* **tampered** — mac does not verify (constant-time compare);
* **replayed** — per-sender nonces must be strictly increasing;
* **expired** — ``issued_at`` is outside the lifetime window of the
  receiver's clock (either direction, so a wildly future-dated frame
  cannot pre-burn nonces).

A rejection raises :class:`AuthError`; the transport traces it and
closes the connection without disturbing the server loop.

:meth:`SessionAuth.seal` / :meth:`SessionAuth.open` are the same checks
over a single message in a canonical-JSON envelope ``{"d": recipient,
"n": nonce, "p": payload, "s": sender, "t": issued_at}``; no link sends
them, but the recorded wire fixture pins their layout.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
import time
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from .codec_bin import read_varint, write_varint

__all__ = ["AuthError", "SessionAuth", "MAC_BYTES", "DEFAULT_LIFETIME"]

#: Raw HMAC-SHA256 digest length prepended to every envelope.
MAC_BYTES = hashlib.sha256().digest_size

#: Default session-frame lifetime, in seconds of receiver wall-clock.
DEFAULT_LIFETIME = 30.0


_pack_double = struct.Struct(">d").pack


@lru_cache(maxsize=4096)
def _name_pair(first: str, second: str) -> bytes:
    """``len | utf8 | len | utf8`` for two names.  A cell has a handful
    of endpoint pairs and a bounded set of node pairs, each sealed
    millions of times; the cache is bounded because names arrive from
    the network."""
    out = bytearray()
    for text in (first, second):
        raw = text.encode("utf-8")
        write_varint(out, len(raw))
        out += raw
    return bytes(out)


class AuthError(ValueError):
    """A session frame failed authentication.

    ``kind`` is one of ``"tampered"``, ``"replayed"``, ``"expired"``, or
    ``"malformed"`` — matching the keys of
    :attr:`SessionAuth.rejected`.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class SessionAuth:
    """Seal and open session frames under a shared cell secret.

    One instance per runtime endpoint: it keeps the outbound nonce
    counter for each local sender and the highest nonce seen from each
    remote sender.  ``clock`` is injectable for tests (defaults to
    :func:`time.time`).
    """

    def __init__(
        self,
        secret: bytes,
        lifetime: float = DEFAULT_LIFETIME,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not secret:
            raise ValueError("session secret must be non-empty")
        self._secret = bytes(secret)
        self.lifetime = float(lifetime)
        self._clock = clock
        self._next_nonce: Dict[str, int] = {}
        self._last_seen: Dict[str, int] = {}
        #: Rejection counters by kind, exposed for tests and reports.
        self.rejected: Dict[str, int] = {
            "tampered": 0,
            "replayed": 0,
            "expired": 0,
            "malformed": 0,
        }

    # -- sealing ----------------------------------------------------------
    def seal(self, sender: str, recipient: str, payload: bytes) -> bytes:
        """Wrap ``payload`` (UTF-8 codec bytes) in an authenticated envelope."""
        nonce = self._next_nonce.get(sender, 0) + 1
        self._next_nonce[sender] = nonce
        envelope = json.dumps(
            {
                "d": recipient,
                "n": nonce,
                "p": payload.decode("utf-8"),
                "s": sender,
                "t": self._clock(),
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return hmac.digest(self._secret, envelope, "sha256") + envelope

    # -- opening ----------------------------------------------------------
    def open(self, blob: bytes) -> Tuple[str, str, bytes]:
        """Verify a sealed frame; return ``(sender, recipient, payload_bytes)``.

        Raises :class:`AuthError` (and bumps the matching counter) on
        any failure.  Nonce state only advances on *success*, so a
        tampered frame cannot burn a legitimate sender's nonce.
        """
        if len(blob) < MAC_BYTES + 2:
            raise self._reject("malformed", f"frame too short ({len(blob)} bytes)")
        mac, envelope = blob[:MAC_BYTES], blob[MAC_BYTES:]
        expected = hmac.digest(self._secret, envelope, "sha256")
        if not hmac.compare_digest(mac, expected):
            raise self._reject("tampered", "HMAC verification failed")
        try:
            fields = json.loads(envelope.decode("utf-8"))
            sender = fields["s"]
            recipient = fields["d"]
            nonce = fields["n"]
            issued_at = fields["t"]
            payload = fields["p"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise self._reject("malformed", f"bad envelope: {exc}") from None
        if not (
            isinstance(sender, str)
            and isinstance(recipient, str)
            and isinstance(nonce, int)
            and not isinstance(nonce, bool)
            and isinstance(issued_at, (int, float))
            and isinstance(payload, str)
        ):
            raise self._reject("malformed", "envelope field types")
        if abs(self._clock() - issued_at) > self.lifetime:
            raise self._reject("expired", f"issued_at {issued_at} outside lifetime window")
        last = self._last_seen.get(sender, 0)
        if nonce <= last:
            raise self._reject("replayed", f"nonce {nonce} <= last seen {last} from {sender}")
        self._last_seen[sender] = nonce
        return sender, recipient, payload.encode("utf-8")

    # -- binary segments --------------------------------------------------
    def seal_segment(
        self,
        sender: str,
        recipient: str,
        items: List[Tuple[str, str, bytes]],
    ) -> bytes:
        """Seal a batch of ``(src, dst, body)`` into one authenticated segment.

        ``sender``/``recipient`` name the *transport endpoints*; the
        nonce counter is the one :meth:`seal` also advances.  One HMAC
        covers the whole batch.
        """
        nonce = self._next_nonce.get(sender, 0) + 1
        self._next_nonce[sender] = nonce
        out = bytearray(_name_pair(sender, recipient))
        write_varint(out, nonce)
        out += _pack_double(self._clock())
        write_varint(out, len(items))
        for src, dst, body in items:
            out += _name_pair(src, dst)
            write_varint(out, len(body))
            out += body
        return hmac.digest(self._secret, out, "sha256") + out

    def open_segment(
        self, blob: bytes
    ) -> Tuple[str, str, List[Tuple[str, str, bytes]]]:
        """Verify a sealed segment; return ``(sender, recipient, items)``.

        Same checks and counters as :meth:`open`; one nonce guards the
        whole batch, and nonce state advances only after every item
        parses.
        """
        if len(blob) < MAC_BYTES + 2:
            raise self._reject("malformed", f"segment too short ({len(blob)} bytes)")
        mac, envelope = blob[:MAC_BYTES], blob[MAC_BYTES:]
        expected = hmac.digest(self._secret, envelope, "sha256")
        if not hmac.compare_digest(mac, expected):
            raise self._reject("tampered", "HMAC verification failed")
        try:
            pos = 0
            texts: List[str] = []
            for _ in range(2):
                length, pos = read_varint(envelope, pos)
                texts.append(envelope[pos : pos + length].decode("utf-8"))
                pos += length
            sender, recipient = texts
            nonce, pos = read_varint(envelope, pos)
            (issued_at,) = struct.unpack_from(">d", envelope, pos)
            pos += 8
            count, pos = read_varint(envelope, pos)
            if count > len(envelope) - pos:
                raise ValueError(f"segment count {count} exceeds envelope")
            items: List[Tuple[str, str, bytes]] = []
            for _ in range(count):
                parts: List[bytes] = []
                for _ in range(3):
                    length, pos = read_varint(envelope, pos)
                    if pos + length > len(envelope):
                        raise ValueError("truncated segment item")
                    parts.append(bytes(envelope[pos : pos + length]))
                    pos += length
                items.append(
                    (parts[0].decode("utf-8"), parts[1].decode("utf-8"), parts[2])
                )
            if pos != len(envelope):
                raise ValueError(f"{len(envelope) - pos} trailing segment bytes")
        except (ValueError, UnicodeDecodeError, struct.error) as exc:
            raise self._reject("malformed", f"bad segment: {exc}") from None
        if abs(self._clock() - issued_at) > self.lifetime:
            raise self._reject("expired", f"issued_at {issued_at} outside lifetime window")
        last = self._last_seen.get(sender, 0)
        if nonce <= last:
            raise self._reject("replayed", f"nonce {nonce} <= last seen {last} from {sender}")
        self._last_seen[sender] = nonce
        return sender, recipient, items

    def _reject(self, kind: str, detail: str) -> AuthError:
        self.rejected[kind] += 1
        return AuthError(kind, detail)
