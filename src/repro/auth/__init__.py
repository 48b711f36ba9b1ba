"""Authentication substrate: toy RSA keys, signatures, and principals.

Implements the paper's assumption that "a message sent by a user U has
indeed been sent by this user" can be checked via a public-key
cryptosystem.  See :mod:`repro.auth.keys` for the (deliberately weak)
key sizes.
"""

from .identity import Authenticator, Principal, SignedMessage
from .keys import KeyPair, PrivateKey, PublicKey, generate_keypair, is_probable_prime
from .signatures import Signature, Tag, canonical_bytes, message_digest, sign, verify

__all__ = [
    "Authenticator",
    "KeyPair",
    "Principal",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "SignedMessage",
    "Tag",
    "canonical_bytes",
    "generate_keypair",
    "is_probable_prime",
    "message_digest",
    "sign",
    "verify",
]
