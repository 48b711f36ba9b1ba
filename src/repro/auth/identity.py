"""Principals and the authentication authority.

The paper: "each user is uniquely identified by a user id and ... an
authentication method is available to ensure that a message sent by a
user U has indeed been sent by this user."

:class:`Principal` binds a user id to a key pair.  :class:`Authenticator`
is the system-wide directory of public keys that access-control
components consult to verify signed requests; it also supports *marking
a principal compromised*, which models the paper's motivating scenario
("some user identifiers could have been compromised or users
terminated") — compromise does not break verification (the adversary
holds the real key), it is what managers *revoke rights in response
to*.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Union

from .keys import KeyPair, PublicKey, generate_keypair
from .signatures import Signature, Tag, sign, verify

__all__ = ["Principal", "Authenticator", "SignedMessage"]


@dataclass(frozen=True)
class SignedMessage:
    """A payload plus the sender's proof over it (a signature or a tag)."""

    payload: Any
    signature: Union[Signature, Tag]


class Principal:
    """A user (or host) identity holding its own key pair.

    The default key is derived from SHA-256 of the id, so every process
    generates the same key for the same identity (``hash()`` is salted
    per interpreter) and distinct ids get distinct keys.
    """

    def __init__(self, user_id: str, keypair: Optional[KeyPair] = None,
                 rng: Optional[random.Random] = None):
        self.user_id = user_id
        if keypair is None and rng is None:
            digest = hashlib.sha256(user_id.encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
        self.keypair = keypair or generate_keypair(rng=rng)

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    def sign(self, payload: Any) -> SignedMessage:
        """Produce a signed message from this principal."""
        return SignedMessage(
            payload=payload,
            signature=sign(payload, self.user_id, self.keypair.private),
        )

    def __repr__(self) -> str:
        return f"<Principal {self.user_id}>"


class Authenticator:
    """Directory of registered principals' public keys.

    ``authenticate`` implements the paper's assumption: given a signed
    message claiming to be from user U, decide whether it really was
    signed with U's key.
    """

    def __init__(self) -> None:
        self._keys: Dict[str, PublicKey] = {}
        self.compromised: Set[str] = set()

    def register(self, principal: Principal) -> None:
        """Register (or re-register) a principal's public key."""
        self._keys[principal.user_id] = principal.public_key

    def key_of(self, user_id: str) -> Optional[PublicKey]:
        return self._keys.get(user_id)

    def authenticate(self, message: SignedMessage) -> bool:
        """True iff the signature verifies under the claimed signer's key.

        Unknown signers fail authentication.  Compromised identities
        still authenticate — the adversary holds the genuine key; it is
        the *access control* layer's job to revoke their rights.
        """
        key = self._keys.get(message.signature.signer)
        if key is None:
            return False
        return verify(message.payload, message.signature, key)

    def mark_compromised(self, user_id: str) -> None:
        """Record that ``user_id``'s key is in hostile hands."""
        self.compromised.add(user_id)

    def __repr__(self) -> str:
        return f"<Authenticator principals={len(self._keys)} compromised={len(self.compromised)}>"
