"""Hash-then-sign message authentication over the toy RSA keys.

Implements the paper's authentication assumption: every protocol
message can carry a signature proving which principal sent it.  The
scheme is SHA-256 -> integer -> RSA private-key exponentiation
("textbook" RSA signatures, adequate for a simulation; generated keys
carry their CRT parameters, which halves the exponentiation's cost
without changing a single signature value).

Messages are serialised canonically (sorted-key ``repr`` of primitive
structures) so signing is deterministic and independent of dict
ordering.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass
from typing import Any

from .keys import PrivateKey, PublicKey

__all__ = ["Signature", "sign", "verify", "message_digest", "canonical_bytes"]


def canonical_bytes(payload: Any) -> bytes:
    """Serialise a structure to canonical bytes.

    Supports primitives (str/int/float/bool/None), tuples/lists/dicts/
    sets thereof, enums, and dataclasses (protocol messages are frozen
    dataclasses), so entire wire messages can be signed.
    """
    return _canon(payload).encode("utf-8")


def _canon(value: Any) -> str:
    if value is None or isinstance(value, (bool, int, float, str)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
        return f"dc:{type(value).__name__}:{_canon(fields)}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canon(v) for v in value)
        return f"seq:[{inner}]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{_canon(k)}=>{_canon(v)}" for k, v in items)
        return f"map:{{{inner}}}"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(_canon(v) for v in value))
        return f"set:{{{inner}}}"
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def message_digest(payload: Any) -> int:
    """SHA-256 of the canonical serialisation, as an integer."""
    return int.from_bytes(hashlib.sha256(canonical_bytes(payload)).digest(), "big")


@dataclass(frozen=True)
class Signature:
    """A signature value plus the signer's claimed identity."""

    signer: str
    value: int


def sign(payload: Any, signer: str, key: PrivateKey) -> Signature:
    """Sign ``payload`` (the digest is reduced mod n)."""
    digest = message_digest(payload) % key.n
    return Signature(signer=signer, value=key.power(digest))


def verify(payload: Any, signature: Signature, key: PublicKey) -> bool:
    """True iff ``signature`` is valid for ``payload`` under ``key``."""
    digest = message_digest(payload) % key.n
    return pow(signature.value, key.e, key.n) == digest
