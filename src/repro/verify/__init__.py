"""Trace-driven protocol conformance checking and fault-schedule fuzzing.

Two halves:

* :mod:`repro.verify.invariants` — online oracles for the paper's
  safety claims (Te-bounded revocation, Figure 3 expiry stamping,
  freeze-window safety, quorum intersection, cache expiry, replica
  convergence), attachable to any
  :class:`~repro.core.system.AccessControlSystem`.
* :mod:`repro.verify.fuzz` + :mod:`repro.verify.schedules` — a seeded
  fault-schedule fuzzer that runs many randomized partition / crash /
  clock-drift / workload schedules against the oracles in parallel and
  shrinks any failure to a minimal replayable schedule.

Checking can be switched on globally for a process (every system any
experiment constructs) with :func:`set_checking` or the
``REPRO_CHECK_INVARIANTS`` environment variable, which is what the CLI
``--check-invariants`` flag uses.
"""

from __future__ import annotations

import os
from typing import Optional

from .invariants import (
    CacheExpiryInvariant,
    ConvergenceInvariant,
    FreezeWindowInvariant,
    Invariant,
    InvariantChecker,
    InvariantViolation,
    QuorumIntersectionInvariant,
    TeBoundInvariant,
)
from .schedules import (
    ClockDriftSpec,
    CrashEvent,
    PartitionEvent,
    Schedule,
    WorkloadSpec,
    generate_schedule,
)
from .fuzz import FuzzReport, FuzzResult, run_cell, run_fuzz, shrink_schedule

__all__ = [
    "Invariant",
    "InvariantChecker",
    "InvariantViolation",
    "TeBoundInvariant",
    "FreezeWindowInvariant",
    "QuorumIntersectionInvariant",
    "CacheExpiryInvariant",
    "ConvergenceInvariant",
    "Schedule",
    "PartitionEvent",
    "CrashEvent",
    "ClockDriftSpec",
    "WorkloadSpec",
    "generate_schedule",
    "FuzzReport",
    "FuzzResult",
    "run_cell",
    "run_fuzz",
    "shrink_schedule",
    "checking_enabled",
    "set_checking",
]

_ENV_FLAG = "REPRO_CHECK_INVARIANTS"
_enabled: Optional[bool] = None


def checking_enabled() -> bool:
    """Whether systems should attach invariant checkers by default.

    :func:`set_checking` wins; otherwise the ``REPRO_CHECK_INVARIANTS``
    environment variable (``1``/``true``/``yes``/``on``) decides.
    """
    if _enabled is not None:
        return _enabled
    return os.environ.get(_ENV_FLAG, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def set_checking(enabled: Optional[bool]) -> None:
    """Force default invariant checking on/off process-wide.

    ``None`` restores deferral to the environment variable.
    """
    global _enabled
    _enabled = enabled
