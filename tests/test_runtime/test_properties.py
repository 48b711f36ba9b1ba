"""Property-based tests for the per-cell seed derivation.

The parallel runtime's contract is "same inputs, same outputs, any
worker count, any machine"; a fuzz cell's seed is a pure SHA-256
function of ``(master_seed, cell)``, so it cannot depend on which
worker ran the cell.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import derive_seed
from repro.verify.schedules import generate_schedule

masters = st.integers(min_value=0, max_value=2**63 - 1)
indexes = st.integers(min_value=0, max_value=10_000)


class TestSeedProperties:
    @given(master=masters, i=indexes, j=indexes)
    @settings(max_examples=200)
    def test_distinct_cells_give_distinct_seeds(self, master, i, j):
        # The stream name brackets the cell index, so two cells never
        # alias to the same derivation string.
        same = derive_seed(master, f"fuzz[{i}]") == derive_seed(master, f"fuzz[{j}]")
        assert same == (i == j)

    def test_platform_stable_values(self):
        # SHA-256-backed: this literal must hold on every Python
        # version, OS, and architecture.  A change here would silently
        # re-randomise every recorded fuzz schedule.
        assert generate_schedule(7, 3).seed == 7290522525737761144
