"""Deterministic per-trial seed derivation.

Extends :func:`repro.sim.rng.derive_seed` from named streams to indexed
trials: ``trial_seed(master_seed, i)`` is a pure SHA-256 function of the
master seed and the trial index, so it is stable across Python versions,
processes, and machines — the property the parallel runtime's
determinism contract rests on.  A worker process that is handed trial
``i`` reconstructs exactly the randomness the sequential loop would
have used for trial ``i``.
"""

from __future__ import annotations

from ..sim.rng import derive_seed

__all__ = ["trial_seed"]


def trial_seed(master_seed: int, trial_index: int, label: str = "trial") -> int:
    """Return the 64-bit seed for trial ``trial_index`` of an experiment.

    The mapping is injective per label (distinct indexes give distinct
    seeds with overwhelming probability) and independent of execution
    order or worker assignment.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    return derive_seed(master_seed, f"{label}[{trial_index}]")
