"""Tests for user populations."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.workloads.population import UserPopulation


class TestConstruction:
    def test_size_and_names(self):
        population = UserPopulation(5)
        assert len(population) == 5
        assert list(population) == ["u0", "u1", "u2", "u3", "u4"]

    def test_custom_prefix(self):
        assert UserPopulation(2, prefix="client").users == ["client0", "client1"]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UserPopulation(0)
        with pytest.raises(ValueError):
            UserPopulation(5, zipf_s=-1.0)


class TestPopularity:
    def test_probabilities_sum_to_one(self):
        population = UserPopulation(20, zipf_s=1.0)
        total = sum(population.popularity(user) for user in population)
        assert total == pytest.approx(1.0)

    def test_zipf_head_heavier_than_tail(self):
        population = UserPopulation(100, zipf_s=1.0)
        assert population.popularity("u0") > 10 * population.popularity("u99")

    def test_uniform_when_s_zero(self):
        population = UserPopulation(10, zipf_s=0.0)
        assert population.popularity("u0") == pytest.approx(
            population.popularity("u9")
        )

    def test_head(self):
        assert UserPopulation(10).head(3) == ["u0", "u1", "u2"]


class TestSampling:
    def test_deterministic_with_seed(self):
        population = UserPopulation(50)
        a = population.sample_many(random.Random(1), 20)
        b = population.sample_many(random.Random(1), 20)
        assert a == b

    def test_empirical_frequencies_follow_zipf(self):
        population = UserPopulation(10, zipf_s=1.0)
        counts = Counter(population.sample_many(random.Random(2), 20_000))
        assert counts["u0"] / 20_000 == pytest.approx(
            population.popularity("u0"), abs=0.02
        )
        assert counts["u0"] > counts["u9"]

    def test_all_users_reachable(self):
        population = UserPopulation(5, zipf_s=0.5)
        seen = set(population.sample_many(random.Random(3), 2_000))
        assert seen == set(population.users)


class TestLazyNames:
    """The user universe is virtual: names are arithmetic, not stored."""

    def test_users_compares_equal_to_list(self):
        population = UserPopulation(4)
        assert population.users == ["u0", "u1", "u2", "u3"]
        assert population.users != ["u0", "u1"]

    def test_slicing_and_negative_index(self):
        population = UserPopulation(10)
        assert population.users[2:5] == ["u2", "u3", "u4"]
        assert population.users[-1] == "u9"
        with pytest.raises(IndexError):
            population.users[10]

    def test_membership_is_canonical(self):
        population = UserPopulation(100)
        assert "u99" in population.users
        assert "u100" not in population.users
        assert "u07" not in population.users  # non-canonical spelling
        for lookalike in ("u²", "u٣", "u１", "u-1"):  # not ASCII decimals
            assert lookalike not in population.users
            with pytest.raises(ValueError):
                population.users.index(lookalike)
        assert "v1" not in population.users

    def test_index_is_exact_inverse(self):
        population = UserPopulation(1_000_000)
        assert population.users.index("u999999") == 999999
        with pytest.raises(ValueError):
            population.users.index("u1000000")

    def test_no_per_name_storage_at_mega_scale(self):
        # Construction of a 10^6-user population must not materialise
        # names or weights; only sampling builds (numeric) state.
        population = UserPopulation(1_000_000)
        assert population._cumulative is None
        assert population.name_of(123_456) == "u123456"

    def test_name_of_and_index_of_roundtrip(self):
        population = UserPopulation(50, prefix="client")
        for uid in (0, 7, 49):
            assert population.index_of(population.name_of(uid)) == uid

    def test_interner_shares_the_dense_block(self):
        population = UserPopulation(1000)
        ids = population.interner()
        assert ids.get("u0") == 0
        assert ids.get("u999") == 999
        assert len(ids._ids) == 0  # arithmetic, no stored entries


class TestHarmonicSampler:
    """Devroye rejection-inversion: O(1) memory, versioned stream."""

    def test_distribution_matches_popularity(self):
        population = UserPopulation(10, zipf_s=1.0, sampler="harmonic")
        counts = Counter(population.sample_many(random.Random(2), 20_000))
        assert counts["u0"] / 20_000 == pytest.approx(
            population.popularity("u0"), abs=0.02
        )
        assert counts["u0"] > counts["u9"]

    def test_no_cumulative_table_is_built(self):
        population = UserPopulation(1_000_000, sampler="harmonic")
        rng = random.Random(5)
        draws = {population.sample_id(rng) for _ in range(200)}
        assert population._cumulative is None
        assert all(0 <= uid < 1_000_000 for uid in draws)

    def test_uniform_when_s_zero(self):
        population = UserPopulation(5, zipf_s=0.0, sampler="harmonic")
        seen = set(population.sample_many(random.Random(3), 2_000))
        assert seen == set(population.users)

    def test_deterministic_with_seed(self):
        population = UserPopulation(500, sampler="harmonic")
        a = population.sample_many(random.Random(1), 50)
        b = population.sample_many(random.Random(1), 50)
        assert a == b

    def test_exact_sampler_draw_stream_unchanged(self):
        # The default sampler must stay draw-identical to the
        # historical eager implementation (golden traces depend on it).
        population = UserPopulation(50)
        rng = random.Random(1)
        import bisect as _bisect
        import itertools as _itertools

        weights = [1.0 / (rank**1.0) for rank in range(1, 51)]
        total = sum(weights)
        cumulative = list(_itertools.accumulate(w / total for w in weights))
        reference_rng = random.Random(1)
        reference = [
            f"u{min(_bisect.bisect_left(cumulative, reference_rng.random()), 49)}"
            for _ in range(40)
        ]
        assert population.sample_many(rng, 40) == reference

    def test_sampler_name_validated(self):
        with pytest.raises(ValueError):
            UserPopulation(5, sampler="magic")


class TestDiurnalRate:
    def test_rate_oscillates_about_base(self):
        from repro.workloads.population import DiurnalRate

        profile = DiurnalRate(base=10.0, amplitude=0.5, period=100.0)
        assert profile.rate(25.0) == pytest.approx(15.0)  # peak
        assert profile.rate(75.0) == pytest.approx(5.0)  # trough
        assert profile.peak == pytest.approx(15.0)

    def test_validation(self):
        from repro.workloads.population import DiurnalRate

        with pytest.raises(ValueError):
            DiurnalRate(base=0.0)
        with pytest.raises(ValueError):
            DiurnalRate(base=1.0, amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalRate(base=1.0, period=0.0)
