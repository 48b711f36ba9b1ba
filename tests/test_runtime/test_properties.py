"""Property-based tests for the deterministic runtime primitives.

The parallel runtime's contract is "same inputs, same outputs, any
worker count, any machine"; these properties pin the two pieces that
contract rests on: injective, platform-stable seed derivation and
permutation-invariant result merging.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.merge import merge_ordered
from repro.runtime.seeds import trial_seed

masters = st.integers(min_value=0, max_value=2**63 - 1)
indexes = st.integers(min_value=0, max_value=10_000)
labels = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)


class TestSeedProperties:
    @given(master=masters, i=indexes, j=indexes, a=labels, b=labels)
    @settings(max_examples=200)
    def test_distinct_labels_or_indexes_give_distinct_seeds(
        self, master, i, j, a, b
    ):
        # f"{label}[{index}]" parses uniquely (the final bracket group
        # is the index), so different (label, index) pairs can never
        # alias to the same derivation string.
        if (i, a) == (j, b):
            assert trial_seed(master, i, label=a) == trial_seed(
                master, j, label=b
            )
        else:
            assert trial_seed(master, i, label=a) != trial_seed(
                master, j, label=b
            )

    @given(master=masters, i=indexes, label=labels)
    @settings(max_examples=100)
    def test_pure_function_of_inputs(self, master, i, label):
        assert trial_seed(master, i, label=label) == trial_seed(
            master, i, label=label
        )

    @given(master=masters, i=indexes)
    @settings(max_examples=100)
    def test_seeds_are_64_bit(self, master, i):
        seed = trial_seed(master, i)
        assert 0 <= seed < 2**64

    def test_platform_stable_values(self):
        # SHA-256-backed: these literals must hold on every Python
        # version, OS, and architecture.  A change here would silently
        # re-randomise every recorded experiment and fuzz schedule.
        assert trial_seed(0, 0) == 1407874983961304770
        assert trial_seed(7, 3) == 18368835593159575832
        assert trial_seed(7, 3, label="fuzz") == 7290522525737761144


class TestMergeProperties:
    @given(
        values=st.lists(st.integers(), min_size=0, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_merge_ordered_is_permutation_invariant(self, values, data):
        indexed = list(enumerate(values))
        shuffled = data.draw(st.permutations(indexed))
        assert merge_ordered(shuffled, expected=len(values)) == values
