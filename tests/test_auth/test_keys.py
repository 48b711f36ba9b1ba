"""Tests for toy RSA key generation."""

from __future__ import annotations

import random

import pytest

from repro.auth.keys import PrivateKey, generate_keypair, is_probable_prime


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 149):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 6, 9, 15, 21, 100, 561, 1105):  # incl. Carmichael
            assert not is_probable_prime(n)

    def test_negative(self):
        assert not is_probable_prime(-7)

    def test_known_large_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_known_large_composite(self):
        assert not is_probable_prime((2**127 - 1) * 3)

    def test_agrees_with_trial_division_up_to_2000(self):
        def slow_prime(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(n**0.5) + 1))

        for n in range(2000):
            assert is_probable_prime(n) == slow_prime(n), n


class TestKeygen:
    def test_roundtrip_encryption_property(self):
        pair = generate_keypair(bits=128, rng=random.Random(1))
        message = 123456789
        cipher = pow(message, pair.public.e, pair.public.n)
        assert pow(cipher, pair.private.d, pair.private.n) == message

    def test_deterministic_given_rng(self):
        a = generate_keypair(bits=128, rng=random.Random(5))
        b = generate_keypair(bits=128, rng=random.Random(5))
        assert a.public == b.public and a.private == b.private

    def test_different_seeds_differ(self):
        a = generate_keypair(bits=128, rng=random.Random(1))
        b = generate_keypair(bits=128, rng=random.Random(2))
        assert a.public != b.public

    def test_modulus_size(self):
        pair = generate_keypair(bits=256, rng=random.Random(3))
        assert pair.public.bits >= 250

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=16)


class TestKeyTransport:
    """``PublicKey.wrap`` / ``PrivateKey.unwrap``: textbook-RSA key transport."""

    def test_roundtrip_keeps_leading_zero_bytes(self):
        pair = generate_keypair(bits=192, rng=random.Random(3))
        for key in (bytes(range(16)), b"\x00" * 15 + b"\x01", b"\xff" * 16):
            assert pair.private.unwrap(pair.public.wrap(key), 16) == key

    def test_plain_and_crt_private_keys_unwrap_alike(self):
        pair = generate_keypair(bits=160, rng=random.Random(4))
        plain = PrivateKey(n=pair.private.n, d=pair.private.d)
        wrapped = pair.public.wrap(b"sixteen byte key")
        assert plain.unwrap(wrapped, 16) == pair.private.unwrap(wrapped, 16) == b"sixteen byte key"

    @pytest.mark.parametrize("bits", [32, 64, 128])
    def test_modulus_too_small_to_carry_the_key(self, bits):
        pair = generate_keypair(bits=bits, rng=random.Random(5))
        with pytest.raises(ValueError):
            pair.public.wrap(b"k" * 16)
        assert pair.private.unwrap(pair.public.wrap(b"k"), 1) == b"k"

    @pytest.mark.parametrize("wrapped", [0, -1, "12", 1.0, None, True, 1 << 4000])
    def test_unwrap_rejects_what_is_not_a_wrapped_key(self, wrapped):
        pair = generate_keypair(bits=192, rng=random.Random(6))
        with pytest.raises(ValueError):
            pair.private.unwrap(wrapped, 16)
        with pytest.raises(ValueError):
            pair.private.unwrap(pair.public.n, 16)

    def test_unwrap_rejects_a_plaintext_longer_than_the_key(self):
        pair = generate_keypair(bits=192, rng=random.Random(7))
        with pytest.raises(ValueError):
            pair.private.unwrap(pair.public.wrap(b"k" * 20), 16)
