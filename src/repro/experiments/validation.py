"""sim_table1: simulated validation of the Table 1 analysis.

The paper's Table 1 is analytic.  This experiment runs the *actual
protocol* — hosts issuing parallel check-quorum queries with ``R = 1``
(the analysis assumption), managers issuing revocations with
persistent dissemination — over a network whose pairwise
inaccessibility is i.i.d. Bernoulli(``Pi``) per interaction
(:class:`~repro.sim.partitions.SampledConnectivity`), and measures:

* **PA-hat** — fraction of access checks by a granted user that reach
  the check quorum and are allowed;
* **PS-hat** — fraction of revocations whose update quorum is reached
  within the trial window.

Each estimate comes with a Wilson 95% interval; the analytic value
should fall inside it (asserted by the test suite for a fixed seed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.quorum_math import availability, security
from ..core.system import AccessControlSystem
from ..metrics.estimators import wilson_interval
from ..sim.partitions import SampledConnectivity
from .base import (
    ExperimentResult,
    access_trial,
    analysis_policy,
    run_grid,
    run_trials,
)

__all__ = ["run", "simulate_pa", "simulate_ps", "simulate_cell"]


def simulate_pa(
    m: int, c: int, pi: float, trials: int, seed: int,
    application: str = "app", shards: int = 1,
) -> Tuple[int, int]:
    """Return (successes, trials) for the availability experiment
    against ``application``'s group of ``m`` managers (one of
    ``shards``)."""
    connectivity = SampledConnectivity(pi)
    system = AccessControlSystem.experiment_cell(
        analysis_policy(c), n_managers=m, n_hosts=1, applications=(application,),
        connectivity=connectivity, shards=shards, seed=seed,
    )
    system.seed_grants(application, (f"u{i}" for i in range(trials)))
    outcomes = run_trials(
        system.env, trials,
        access_trial(system.hosts[0], application, lambda i: f"u{i}"),
        connectivity.resample,
    )
    return sum(outcomes), trials


def simulate_ps(m: int, c: int, pi: float, trials: int, seed: int) -> Tuple[int, int]:
    """Return (successes, trials) for the security experiment.

    A trial succeeds when the revoking manager's update quorum
    (``M - C + 1`` including itself) is reached within the trial
    window; connectivity is frozen for the window, so the event is
    exactly "at least M - C of the other M - 1 managers reachable".
    """
    connectivity = SampledConnectivity(pi)
    system = AccessControlSystem.experiment_cell(
        analysis_policy(c), n_managers=m, n_hosts=0,
        connectivity=connectivity, seed=seed + 7_777,
    )
    system.seed_grants("app", (f"v{i}" for i in range(trials)))

    def revoke(i: int):
        quorum = system.managers[0].revoke("app", f"v{i}").quorum
        return lambda: quorum.triggered

    return sum(run_trials(system.env, trials, revoke, connectivity.resample)), trials


def simulate_cell(
    m: int, c: int, pi: float, trials: int, seed: int
) -> Tuple[int, int, int, int]:
    """One ``(m, C, Pi)`` cell: both PA and PS counts for that cell.

    The unit of parallel dispatch — a pure function of its arguments,
    so a worker process produces exactly what the sequential loop would.
    """
    return (*simulate_pa(m, c, pi, trials, seed), *simulate_ps(m, c, pi, trials, seed))


def _row(m, c, pi, _trials, _seed, counts) -> List[float]:
    pa_hits, pa_n, ps_hits, ps_n = counts
    pa_lo, pa_hi = wilson_interval(pa_hits, pa_n)
    ps_lo, ps_hi = wilson_interval(ps_hits, ps_n)
    return [
        pi, c,
        availability(m, c, pi), pa_hits / pa_n, pa_lo, pa_hi,
        security(m, c, pi), ps_hits / ps_n, ps_lo, ps_hi,
    ]


def run(
    m: int = 10,
    cs: Sequence[int] = (1, 3, 5, 7, 10),
    pis: Sequence[float] = (0.1, 0.2),
    trials: int = 400,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Simulate PA/PS for selected check quorums and compare to Table 1.

    ``jobs`` fans the (Pi, C) cells out over worker processes; any value
    produces byte-identical tables (each cell's randomness depends only
    on its own arguments).
    """
    columns = [
        "Pi", "C",
        "PA analytic", "PA simulated", "PA ci-low", "PA ci-high",
        "PS analytic", "PS simulated", "PS ci-low", "PS ci-high",
    ]
    tasks = [(m, c, pi, trials, seed) for pi in pis for c in cs]
    rows = run_grid(simulate_cell, tasks, jobs, _row)
    eps = 1e-9  # float slack at the CI boundaries
    all_within = all(
        pa_lo - eps <= pa <= pa_hi + eps and ps_lo - eps <= ps <= ps_hi + eps
        for _pi, _c, pa, _pa_hat, pa_lo, pa_hi, ps, _ps_hat, ps_lo, ps_hi in rows
    )
    return ExperimentResult(
        experiment_id="sim_table1",
        title="Simulated protocol vs Table 1 analysis",
        columns=columns,
        rows=rows,
        notes=(
            "Each simulated estimate is a Wilson 95% interval over "
            f"{trials} protocol-level trials; analytic values "
            + ("all fall inside their intervals."
               if all_within
               else "do NOT all fall inside their intervals — investigate.")
        ),
        params={"M": m, "trials": trials, "seed": seed},
    )
