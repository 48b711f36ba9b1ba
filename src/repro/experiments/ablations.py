"""freeze_vs_quorum: the two manager-coordination strategies of Section 3.3.

The paper offers two ways to keep the revocation bound when *managers*
are partitioned from each other:

* **Freeze** — "should any manager remain inaccessible for longer than
  [Ti], all access rights are frozen and no responses are sent to
  application hosts until all managers are accessible again."  The
  paper notes this "has several significant disadvantages": one
  unreachable manager makes the application completely inaccessible.

* **Quorum** — check quorum ``C`` / update quorum ``M - C + 1``: "the
  inaccessibility of a small number of managers does not prevent new
  access control operations from being issued nor access to the
  application in most cases."

This ablation reproduces that comparison directly: one of three
managers is partitioned from its peers (hosts can still reach all
three).  Under the freeze strategy, availability collapses to zero for
the duration; under the quorum strategy it is unaffected, and a revoke
issued during the partition still reaches its update quorum.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..sim.partitions import ScriptedConnectivity
from ..workloads.generators import ObservedDecision, PeriodicWorkload
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_phases"]

# Timeline (seconds): partition one manager, then heal.
_PARTITION_AT = 60.0
_REVOKE_AT = 150.0  # mid-partition
_HEAL_AT = 300.0
_END_AT = 420.0
# Phase windows leave margin around transitions (freeze detection lag
# is Ti + one ping interval).
_PHASES = {
    "before": (0.0, 55.0),
    "during": (110.0, 295.0),
    "after": (330.0, 415.0),
}


def measure_phases(
    use_freeze: bool, seed: int = 0
) -> Tuple[Dict[str, Tuple[float, int]], bool]:
    """Per-phase availability; plus whether a mid-partition revoke
    reached its quorum before the heal."""
    freeze = dict(use_freeze=True, inaccessibility_period=30.0) if use_freeze else {}
    policy = cell_policy(
        check_quorum=2,
        expiry_bound=40.0,
        max_attempts=2,
        retry_backoff=0.5,
        cache_cleanup_interval=60.0,
        **freeze,
    )
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem.experiment_cell(
        policy, n_managers=3, n_hosts=1, connectivity=connectivity, seed=seed
    )
    system.seed_grant("app", "alice")
    observed: List[ObservedDecision] = []
    PeriodicWorkload(
        system, "app", ["alice"], think_time=2.0, until=_END_AT,
        on_decision=observed.append,
    )

    system.run(until=_PARTITION_AT)
    # m2 loses contact with its peers only; hosts still reach it.
    connectivity.set_down("m2", "m0")
    connectivity.set_down("m2", "m1")
    system.run(until=_REVOKE_AT)
    handle = system.managers[0].revoke("app", "bob", Right.USE)
    system.run(until=_HEAL_AT - 5.0)
    revoke_quorum_before_heal = handle.quorum.triggered
    system.run(until=_HEAL_AT)
    connectivity.set_up("m2", "m0")
    connectivity.set_up("m2", "m1")
    system.run(until=_END_AT)

    phases = {}
    for phase, (lo, hi) in _PHASES.items():
        window = [o.decision.allowed for o in observed if lo <= o.time <= hi]
        phases[phase] = (
            sum(window) / len(window) if window else float("nan"),
            len(window),
        )
    return phases, revoke_quorum_before_heal


def _rows(use_freeze: bool, _seed: int, result) -> Tuple[List[List], bool]:
    phases, revoked = result
    name = "freeze (Ti=30)" if use_freeze else "quorum (C=2)"
    return [[name, phase, count, fraction] for phase, (fraction, count) in phases.items()], revoked


def run(seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    (quorum_rows, quorum_revoked), (freeze_rows, freeze_revoked) = run_grid(
        measure_phases, [(False, seed), (True, seed)], jobs, _rows
    )
    rows = quorum_rows + freeze_rows
    return ExperimentResult(
        experiment_id="freeze_vs_quorum",
        title="Manager-partition strategies: freeze vs quorum (Section 3.3)",
        columns=["strategy", "phase", "attempts", "availability"],
        rows=rows,
        notes=(
            "One of three managers is partitioned from its peers during the "
            "'during' phase; hosts can reach all managers throughout.  "
            "Freeze: availability collapses once Ti elapses (and a revoke "
            "issued mid-partition cannot complete: quorum-before-heal="
            f"{freeze_revoked}).  Quorum: availability "
            "is unaffected and the mid-partition revoke reaches its update "
            f"quorum={quorum_revoked}."
        ),
        params={"M": 3, "seed": seed},
    )
