"""Tests for deterministic per-trial seed derivation."""

from __future__ import annotations

import pytest

from repro.runtime.seeds import trial_seed
from repro.sim.rng import derive_seed


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)

    def test_distinct_per_index(self):
        seeds = {trial_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_per_master(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)

    def test_distinct_per_label(self):
        assert trial_seed(0, 0, label="pa") != trial_seed(0, 0, label="ps")

    def test_index_not_confusable_with_master(self):
        # (seed=1, trial=10) and (seed=11, trial=0)-style collisions
        # cannot happen because the label string brackets the index.
        assert trial_seed(1, 10) != trial_seed(11, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            trial_seed(0, -1)

    def test_matches_sha_derivation(self):
        # The scheme is pinned: changing it would silently re-randomise
        # every recorded experiment.
        assert trial_seed(5, 3) == derive_seed(5, "trial[3]")

    def test_known_value_stable_across_processes(self):
        # SHA-256 backed, so this literal must hold on any machine.
        assert trial_seed(0, 0) == derive_seed(0, "trial[0]")
        assert trial_seed(0, 0) == trial_seed(0, 0)
