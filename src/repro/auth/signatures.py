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

Beside :class:`Signature` there is :class:`Tag`: an HMAC-SHA256 over the
same canonical bytes under a key that only the signer and *one* verifier
hold (transported once with :meth:`~repro.auth.keys.PublicKey.wrap`).
It proves the same thing to that verifier at a tenth of the cost, and
nothing to anyone else.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from .keys import PrivateKey, PublicKey

__all__ = [
    "Signature", "sign", "verify", "message_digest", "canonical_bytes",
    "Tag", "PAIRWISE_KEY_BYTES", "make_tag", "check_tag", "key_fingerprint",
]

#: Bytes in a pairwise key, and in the (truncated) tag made under it.
PAIRWISE_KEY_BYTES = 16


def canonical_bytes(payload: Any) -> bytes:
    """Serialise a structure to canonical bytes.

    Supports primitives (str/int/float/bool/None), tuples/lists/dicts/
    sets thereof, enums, and dataclasses (protocol messages are frozen
    dataclasses), so entire wire messages can be signed.
    """
    return _canon(payload).encode("utf-8")


#: Per dataclass type: the ``dc:Name:map:{`` head and, in the order the
#: canonical map sorts them, each field's ``str:'field'=>`` fragment with
#: its attribute name.  Everything about a message's canonical form that
#: does not depend on its values is rendered once per type.
_PLANS: Dict[type, Tuple[str, Tuple[Tuple[str, str], ...]]] = {}


def _plan(cls: type) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    names = sorted(field.name for field in dataclasses.fields(cls))
    plan = (
        f"dc:{cls.__name__}:map:{{",
        tuple((f"{_canon(name)}=>", name) for name in names),
    )
    _PLANS[cls] = plan
    return plan


def _canon(value: Any) -> str:
    # The two types that make up most of every message, then compiled
    # dataclasses; the general walk below decides everything else (and
    # subclasses of the primitives, enums included, exactly as before).
    cls = type(value)
    if cls is str or cls is int:
        return f"{cls.__name__}:{value!r}"
    plan = _PLANS.get(cls)
    if plan is not None:
        head, parts = plan
        inner = ",".join(
            [fragment + _canon(getattr(value, name)) for fragment, name in parts]
        )
        return f"{head}{inner}}}"
    if value is None or isinstance(value, (bool, int, float, str)):
        return f"{cls.__name__}:{value!r}"
    if isinstance(value, enum.Enum):
        return f"enum:{cls.__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _plan(cls)
        return _canon(value)
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


@dataclass(frozen=True)
class Tag:
    """A MAC over a payload under the pairwise key named ``key_id``."""

    signer: str
    key_id: int
    value: int


def key_fingerprint(key: bytes) -> int:
    """The public 64-bit name of a pairwise key; never 0 ("no key")."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") or 1


def _mac(payload: Any, key: bytes) -> bytes:
    return hmac.digest(key, canonical_bytes(payload), "sha256")[:PAIRWISE_KEY_BYTES]


def make_tag(payload: Any, signer: str, key: bytes, key_id: int) -> Tag:
    """Authenticate ``payload`` to the one other holder of ``key``."""
    return Tag(signer=signer, key_id=key_id, value=int.from_bytes(_mac(payload, key), "big"))


def check_tag(payload: Any, tag: Tag, key: bytes) -> bool:
    """True iff ``tag`` was made over ``payload`` under ``key``.

    ``tag.value`` is outside input; anything but an in-range integer fails.
    """
    try:
        claimed = tag.value.to_bytes(PAIRWISE_KEY_BYTES, "big")
    except (AttributeError, OverflowError):
        return False
    return hmac.compare_digest(claimed, _mac(payload, key))
