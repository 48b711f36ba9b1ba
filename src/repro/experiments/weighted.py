"""weighted_quorums: weighted voting vs the paper's count quorums.

An extension experiment (see ``repro.analysis.weighted``): when one of
the managers is far less reachable than the rest, compare the balanced
figure of merit min(PA, PS-from-every-origin) achievable by

* the paper's count-based quorums (all weights 1, best C),
* weighted voting with the flaky manager down-weighted (best
  thresholds),
* simply removing the flaky manager (M - 1 unit weights, best C).

The expected shape: down-weighting recovers most of what the flaky
manager costs the count-based scheme, without giving up the manager's
capacity entirely (which matters when the "flaky" estimate is wrong or
temporary).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from ..analysis.weighted import (
    WeightedQuorumSystem,
    best_thresholds,
    best_unit_counts,
)
from ..core.cellspec import CellSpec
from ..core.system import AccessControlSystem
from ..protocols import WeightedVoteCombiner
from .base import (
    ExperimentResult,
    access_trial,
    analysis_policy,
    run_grid,
    run_trials,
)

__all__ = ["run", "build_setting", "simulate_scheme"]


def simulate_scheme(
    system: WeightedQuorumSystem,
    down: Optional[Dict[str, bool]] = None,
    users: int = 20,
    seed: int = 0,
) -> float:
    """Run a scheme in the discrete-event simulator; returns the
    fraction of fresh checks that succeed with the ``down`` managers
    crashed.

    The weighted host is a pure *composition*: a stock host whose
    pipeline is given a :class:`~repro.protocols.WeightedVoteCombiner`
    factory — no subclassing, no protocol-core changes.
    """
    # The combiner's vote threshold supersedes the policy's count quorum,
    # which is all the quorum oracle knows: this cell runs without it.
    cell = AccessControlSystem.experiment_cell(
        analysis_policy(len(system.weights)),
        one_way=0.02, n_managers=len(system.weights), n_hosts=1, seed=seed,
        check_invariants=False,
    )
    assert set(cell.manager_addrs) == set(system.weights)
    cell.seed_grants("app", (f"u{i}" for i in range(users)))
    for manager in cell.managers:
        if down and down.get(manager.address):
            manager.crash()
    host = cell.hosts[0]
    host.pipeline.combiner_factory = lambda _policy: WeightedVoteCombiner(
        system.weights, system.check_threshold
    )
    return sum(run_trials(cell.env, users, access_trial(host, "app", lambda i: f"u{i}"))) / users


def build_setting(m: int = 5, base_pi: float = 0.1, flaky_pi: float = 0.45):
    """m managers, the last one hard to reach from everywhere."""
    (managers,), _ = CellSpec.names(m)
    flaky = managers[-1]

    def pi_of(target: str) -> float:
        return flaky_pi if target == flaky else base_pi

    host_pi: Dict[str, float] = {mgr: pi_of(mgr) for mgr in managers}
    manager_pi: Dict[str, Dict[str, float]] = {
        origin: {other: pi_of(other) for other in managers if other != origin}
        for origin in managers
    }
    return managers, flaky, host_pi, manager_pi


def _score_candidate(
    candidate: Tuple[int, ...],
    managers: Tuple[str, ...],
    base_pi: float,
    flaky_pi: float,
) -> Tuple[float, WeightedQuorumSystem]:
    """Score one weight assignment (the unit of parallel dispatch)."""
    _managers, _flaky, host_pi, manager_pi = build_setting(
        len(managers), base_pi, flaky_pi
    )
    system = best_thresholds(dict(zip(managers, candidate)), host_pi, manager_pi)
    return (system.worst(host_pi, manager_pi), system)


def run(m: int = 5, base_pi: float = 0.1, flaky_pi: float = 0.45,
        seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    managers, flaky, host_pi, manager_pi = build_setting(m, base_pi, flaky_pi)

    rows: List[List] = []

    def describe(label: str, system: WeightedQuorumSystem,
                 hp: Dict[str, float], mp: Dict[str, Dict[str, float]]):
        worst = system.worst(hp, mp)
        rows.append(
            [
                label,
                "/".join(str(system.weights[mgr]) for mgr in sorted(system.weights)),
                system.check_threshold,
                system.update_threshold,
                system.availability(hp),
                min(system.security(origin, mp[origin]) for origin in system.managers),
                worst,
            ]
        )
        return worst

    # 1. The paper's count quorums over all M managers.
    counts = best_unit_counts(managers, host_pi, manager_pi)
    count_worst = describe("unit weights (paper)", counts, host_pi, manager_pi)

    # 2. Weighted voting: reliable managers carry 2 votes, flaky 1.
    weights = {mgr: (1 if mgr == flaky else 2) for mgr in managers}
    weighted = best_thresholds(weights, host_pi, manager_pi)
    weighted_worst = describe("down-weight flaky", weighted, host_pi, manager_pi)

    # 2b. Brute-force optimal small weights (exhaustive over {1,2,3}^M).
    # Results come back in enumeration order and max() keeps the first
    # maximum, so ties go to the earliest candidate for any ``jobs``.
    scored = run_grid(
        _score_candidate,
        [
            (candidate, tuple(managers), base_pi, flaky_pi)
            for candidate in product((1, 2, 3), repeat=m)
        ],
        jobs,
    )
    _value, optimal = max(scored, key=lambda pair: pair[0])
    optimal_worst = describe("optimal weights <= 3", optimal, host_pi, manager_pi)

    # 3. Remove the flaky manager entirely: M - 1 reliable managers.
    reduced, _, reduced_host_pi, reduced_manager_pi = build_setting(
        m - 1, base_pi, base_pi
    )
    removed = best_unit_counts(reduced, reduced_host_pi, reduced_manager_pi)
    removed_worst = describe(
        "remove flaky (M-1)", removed, reduced_host_pi, reduced_manager_pi
    )

    # 4. Simulation validation: run the weighted scheme through the
    # protocol layer (WeightedVoteCombiner composed onto a stock host)
    # with the flaky manager crashed — its reduced vote must not block
    # verification.
    sim_available = simulate_scheme(weighted, down={flaky: True}, seed=seed)

    return ExperimentResult(
        experiment_id="weighted_quorums",
        title="Weighted voting vs count quorums with one flaky manager "
        "(extension of Section 4.1)",
        columns=[
            "scheme", "weights", "Tc", "Tu",
            "PA", "min PS", "min(PA, PS)",
        ],
        rows=rows,
        notes=(
            f"One manager has pairwise Pi={flaky_pi} (others {base_pi}).  "
            f"Balanced merit min(PA, PS): unit weights {count_worst:.5f}, "
            f"naive down-weighting {weighted_worst:.5f}, exhaustive small "
            f"weights {optimal_worst:.5f}, flaky removed {removed_worst:.5f}. "
            " Finding: the gain of weighted voting here comes from the "
            "finer threshold granularity larger vote totals allow (check "
            "and update thresholds need not split symmetrically), not from "
            "down-weighting alone; dropping the flaky manager outright is "
            "strictly worse than keeping it with votes.  Simulation check: "
            "with the flaky manager crashed, the down-weighted scheme run "
            "through the WeightedVoteCombiner verified "
            f"{sim_available:.0%} of fresh accesses."
        ),
        params={
            "M": m, "base_pi": base_pi, "flaky_pi": flaky_pi,
            "simulated_availability_flaky_down": sim_available,
        },
    )
