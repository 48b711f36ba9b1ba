"""Tests for seeded RNG streams."""

from __future__ import annotations

from repro.sim.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "network") == derive_seed(1, "network")

    def test_differs_by_name(self):
        assert derive_seed(1, "network") != derive_seed(1, "failures")

    def test_differs_by_master(self):
        assert derive_seed(1, "network") != derive_seed(2, "network")

    def test_is_64_bit(self):
        assert 0 <= derive_seed(123, "x") < 2**64


class TestRngStreams:
    def test_streams_are_memoised(self):
        streams = RngStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_independent(self):
        """Draws from one stream do not perturb another."""
        fresh = RngStreams(5)
        expected = fresh.stream("b").random()

        perturbed = RngStreams(5)
        perturbed.stream("a").random()  # extra draw on a different stream
        assert perturbed.stream("b").random() == expected

    def test_reproducible_across_instances(self):
        a = RngStreams(9).stream("net").random()
        b = RngStreams(9).stream("net").random()
        assert a == b

    def test_different_master_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()
