"""Minimal RSA key generation.

The paper assumes "an authentication method is available to ensure that
a message sent by a user U has indeed been sent by this user.  Any
public key cryptosystem, such as the RSA algorithm [22], could be used
for this purpose."  This module provides that substrate from scratch:
Miller–Rabin primality testing, prime generation, and textbook RSA key
pairs.

.. warning::
   This is a *simulation substrate*, not a security library.  Default
   key sizes are far too small for real use and there is no padding
   scheme hardening; the goal is to exercise the authenticated-message
   code path of the reproduced protocol deterministically and fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["PublicKey", "PrivateKey", "KeyPair", "generate_keypair", "is_probable_prime"]

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def is_probable_prime(n: int, rng: Optional[random.Random] = None, rounds: int = 24) -> bool:
    """Miller–Rabin primality test.

    Deterministically correct for all n below ~3.3e24 when the fixed
    witness set is used; above that it is probabilistic with error
    probability at most 4**-rounds.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n-1 as d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    if n < 3_317_044_064_679_887_385_961_981:
        # Deterministic witness set (Sorenson & Webster).
        witnesses = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    else:
        rng = rng or random.Random(0)
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return not any(witness_composite(a % n) for a in witnesses if a % n not in (0, 1))


def _random_prime(bits: int, rng: random.Random) -> int:
    """A random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng):
            return candidate


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _modinv(a: int, m: int) -> int:
    g, x, _ = _egcd(a % m, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def wrap(self, key: bytes) -> int:
        """Transport ``key`` to the private-key holder: ``key ** e mod n``.

        Textbook (unpadded) like the signatures.  Raises ``ValueError``
        when the modulus cannot carry every key of this length.
        """
        if len(key) * 8 >= self.bits:
            raise ValueError(f"a {self.bits}-bit modulus cannot carry a {len(key)}-byte key")
        return pow(int.from_bytes(key, "big"), self.e, self.n)


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key ``(n, d)``, optionally with its CRT parameters.

    :func:`generate_keypair` fills ``p, q, dp, dq, qinv`` (``dp = d mod
    (p-1)``, ``dq = d mod (q-1)``, ``qinv = q^-1 mod p``), which lets
    :meth:`power` use two half-size exponentiations; a key built as
    ``PrivateKey(n, d)`` computes the same values the plain way.
    """

    n: int
    d: int
    p: Optional[int] = None
    q: Optional[int] = None
    dp: Optional[int] = None
    dq: Optional[int] = None
    qinv: Optional[int] = None

    def power(self, m: int) -> int:
        """``m ** d mod n`` — by the Chinese remainder theorem when possible."""
        if self.p is None:
            return pow(m, self.d, self.n)
        m2 = pow(m, self.dq, self.q)
        h = self.qinv * (pow(m, self.dp, self.p) - m2) % self.p
        return m2 + h * self.q

    def unwrap(self, wrapped: int, length: int) -> bytes:
        """Inverse of :meth:`PublicKey.wrap` — one private-key operation.

        ``wrapped`` is outside input: anything that is not the wrapping
        of a ``length``-byte key raises ``ValueError``.
        """
        if type(wrapped) is not int or not 0 < wrapped < self.n:
            raise ValueError("wrapped key out of range")
        try:
            return self.power(wrapped).to_bytes(length, "big")
        except OverflowError:
            raise ValueError("not a wrapped key of this length") from None


@dataclass(frozen=True)
class KeyPair:
    """A matching public/private key pair."""

    public: PublicKey
    private: PrivateKey


def generate_keypair(
    bits: int = 256, rng: Optional[random.Random] = None, e: int = 65537
) -> KeyPair:
    """Generate an RSA key pair with an n of roughly ``bits`` bits.

    ``bits`` defaults to 256 — trivially breakable, deliberately so:
    keygen must be fast enough to run in unit tests.
    """
    if bits < 32:
        raise ValueError("modulus must be at least 32 bits")
    rng = rng or random.Random(0)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        try:
            d = _modinv(e, phi)
        except ValueError:
            continue
        private = PrivateKey(
            n=n, d=d, p=p, q=q, dp=d % (p - 1), dq=d % (q - 1), qinv=_modinv(q, p)
        )
        return KeyPair(public=PublicKey(n=n, e=e), private=private)
