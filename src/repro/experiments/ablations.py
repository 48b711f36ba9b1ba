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

from typing import List, Optional, Tuple

from ..core.policy import AccessPolicy, ExhaustedAction
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..runtime import run_parallel
from ..sim.network import FixedLatency
from ..sim.partitions import ScriptedConnectivity
from .base import ExperimentResult

__all__ = ["run", "measure_phases"]

# Timeline (seconds): partition one manager, then heal.
_PARTITION_AT = 60.0
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
) -> Tuple[dict, bool]:
    """Per-phase availability; plus whether a mid-partition revoke
    reached its quorum before the heal."""
    if use_freeze:
        policy = AccessPolicy(
            check_quorum=2,
            expiry_bound=40.0,
            clock_bound=1.0,
            use_freeze=True,
            inaccessibility_period=30.0,
            max_attempts=2,
            exhausted_action=ExhaustedAction.DENY,
            query_timeout=1.0,
            retry_backoff=0.5,
            ping_interval=5.0,
        )
    else:
        policy = AccessPolicy(
            check_quorum=2,
            expiry_bound=40.0,
            clock_bound=1.0,
            max_attempts=2,
            exhausted_action=ExhaustedAction.DENY,
            query_timeout=1.0,
            retry_backoff=0.5,
        )
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        policy=policy,
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        clock_drift=False,
        seed=seed,
    )
    system.seed_grant("app", "alice")
    host = system.hosts[0]
    outcomes: List[Tuple[float, bool]] = []

    def driver():
        while system.env.now < _END_AT:
            start = system.env.now
            decision = yield host.request_access("app", "alice")
            outcomes.append((start, decision.allowed))
            yield system.env.timeout(2.0)

    system.env.process(driver(), name="driver")

    def partition_script():
        yield system.env.timeout(_PARTITION_AT)
        # m2 loses contact with its peers only; hosts still reach it.
        connectivity.set_down("m2", "m0")
        connectivity.set_down("m2", "m1")
        yield system.env.timeout(_HEAL_AT - _PARTITION_AT)
        connectivity.set_up("m2", "m0")
        connectivity.set_up("m2", "m1")

    system.env.process(partition_script(), name="partition-script")

    revoke_quorum_before_heal = False

    def revoker():
        nonlocal revoke_quorum_before_heal
        yield system.env.timeout(150.0)  # mid-partition
        handle = system.managers[0].revoke("app", "bob", Right.USE)
        yield system.env.timeout(_HEAL_AT - 150.0 - 5.0)
        revoke_quorum_before_heal = handle.quorum.triggered

    system.env.process(revoker(), name="revoker")
    system.run(until=_END_AT)

    phases = {}
    for phase, (lo, hi) in _PHASES.items():
        window = [ok for (t, ok) in outcomes if lo <= t <= hi]
        phases[phase] = (
            sum(window) / len(window) if window else float("nan"),
            len(window),
        )
    return phases, revoke_quorum_before_heal


def run(seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    rows: List[List] = []
    quorum_revokes = {}
    results = run_parallel(measure_phases, [(False, seed), (True, seed)], jobs)
    for use_freeze, (phases, revoked) in zip((False, True), results):
        name = "freeze (Ti=30)" if use_freeze else "quorum (C=2)"
        quorum_revokes[name] = revoked
        for phase in ("before", "during", "after"):
            fraction, count = phases[phase]
            rows.append([name, phase, count, fraction])
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
            f"{quorum_revokes['freeze (Ti=30)']}).  Quorum: availability "
            "is unaffected and the mid-partition revoke reaches its update "
            f"quorum={quorum_revokes['quorum (C=2)']}."
        ),
        params={"M": 3, "seed": seed},
    )
