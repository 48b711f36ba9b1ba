"""Tests for heterogeneous and correlated inaccessibility analysis."""

from __future__ import annotations

import random

import pytest

from repro.analysis.heterogeneous import (
    CorrelatedInaccessibility,
    PairwiseInaccessibility,
    poisson_binomial_tail,
    weighted_average,
)
from repro.analysis.quorum_math import binomial_tail, security


class TestPoissonBinomial:
    def test_equals_binomial_when_uniform(self):
        probs = [0.7] * 8
        for k in range(10):
            assert poisson_binomial_tail(probs, k) == pytest.approx(
                binomial_tail(8, k, 0.7)
            )

    def test_k_zero(self):
        assert poisson_binomial_tail([0.1, 0.2], 0) == 1.0

    def test_k_above_n(self):
        assert poisson_binomial_tail([0.9], 2) == 0.0

    def test_two_heterogeneous_trials(self):
        # P[at least 1 of {0.5, 0.2}] = 1 - 0.5*0.8 = 0.6
        assert poisson_binomial_tail([0.5, 0.2], 1) == pytest.approx(0.6)
        # P[both] = 0.1
        assert poisson_binomial_tail([0.5, 0.2], 2) == pytest.approx(0.1)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            poisson_binomial_tail([1.5], 1)


class TestWeightedAverage:
    def test_uniform_default(self):
        assert weighted_average({"a": 0.2, "b": 0.8}) == pytest.approx(0.5)

    def test_weights_applied(self):
        assert weighted_average(
            {"a": 0.0, "b": 1.0}, {"a": 1.0, "b": 3.0}
        ) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_average({})

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_average({"a": 1.0}, {"a": 0.0})


def uniform(m: int, pi: float) -> PairwiseInaccessibility:
    """The paper's homogeneous model as a special case."""
    managers = [f"m{i}" for i in range(m)]
    return PairwiseInaccessibility(
        managers=managers,
        manager_to_manager={a: {b: pi for b in managers if b != a} for a in managers},
    )


class TestPairwiseModel:
    def test_uniform_model_reproduces_paper_formulas(self):
        """The homogeneous special case must agree with Table 1."""
        model = uniform(m=10, pi=0.1)
        for c in (1, 4, 7, 10):
            assert model.manager_security("m0", c) == pytest.approx(
                security(10, c, 0.1)
            )

    def test_system_aggregates_match_uniform(self):
        model = uniform(m=6, pi=0.2)
        assert model.system_security(3) == pytest.approx(security(6, 3, 0.2))

    def test_flaky_manager_hurts_when_it_issues_updates(self):
        """Section 4.1's warning, quantitatively."""
        managers = ["m0", "m1", "m2", "m3"]
        pi = {
            a: {b: (0.5 if "m3" in (a, b) else 0.05) for b in managers if b != a}
            for a in managers
        }
        model = PairwiseInaccessibility(
            managers=managers,
            manager_to_manager=pi,
        )
        uniform = model.system_security(2)
        flaky_heavy = model.system_security(
            2, update_frequency={"m0": 0.05, "m1": 0.05, "m2": 0.05, "m3": 0.85}
        )
        assert flaky_heavy < uniform


class TestCorrelatedModel:
    def model(self):
        managers = ["m0", "m1", "m2", "m3"]
        return CorrelatedInaccessibility(
            managers=managers,
            private_pi={m: 0.05 for m in managers},
            groups={"m0": "link", "m1": "link", "m2": "direct", "m3": "direct"},
            shared_pi={"link": 0.3, "direct": 0.0},
        )

    def test_marginals_combine_private_and_shared(self):
        model = self.model()
        assert model.marginal_pi("m0") == pytest.approx(1 - 0.95 * 0.7)
        assert model.marginal_pi("m2") == pytest.approx(0.05)

    def test_monte_carlo_availability_close_to_exact_for_c1(self):
        """For C=1 the exact value is tractable: unavailable only if
        all four are down."""
        model = self.model()
        # P[all down] = P[link event] * 0.05^2 (m2,m3 private)
        #   + P[no link event] * 0.05^4
        exact_down = 0.3 * (0.05**2) + 0.7 * (0.05**4)
        estimate = model.availability(1, random.Random(0), samples=60_000)
        assert estimate == pytest.approx(1 - exact_down, abs=0.01)

    def test_correlation_hurts_vs_independent_at_mid_c(self):
        model = self.model()
        rng = random.Random(1)
        mc = model.availability(3, rng, samples=40_000)
        independent = poisson_binomial_tail(
            [1 - model.marginal_pi(m) for m in model.managers], 3
        )
        assert mc < independent
