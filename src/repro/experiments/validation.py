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
from ..core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from ..core.system import AccessControlSystem
from ..metrics.estimators import wilson_interval
from ..runtime import run_parallel
from ..sim.network import FixedLatency
from ..sim.partitions import SampledConnectivity
from .base import ExperimentResult

__all__ = ["run", "simulate_pa", "simulate_ps", "simulate_cell"]

#: One trial's wall-clock budget (simulated seconds).  With 50 ms fixed
#: latency and a 1 s query timeout, every decision lands well inside it.
_TRIAL_WINDOW = 3.0


def _policy(c: int) -> AccessPolicy:
    return AccessPolicy(
        check_quorum=c,
        expiry_bound=1_000_000.0,  # expiry is irrelevant here
        clock_bound=1.0,
        max_attempts=1,  # the analysis's R = 1 assumption
        exhausted_action=ExhaustedAction.DENY,
        query_timeout=1.0,
        query_strategy=QueryStrategy.PARALLEL,
        retry_backoff=0.0,
        update_retry_interval=0.5,
        cache_cleanup_interval=None,
    )


def simulate_pa(m: int, c: int, pi: float, trials: int, seed: int) -> Tuple[int, int]:
    """Return (successes, trials) for the availability experiment."""
    connectivity = SampledConnectivity(pi)
    system = AccessControlSystem(
        n_managers=m,
        n_hosts=1,
        policy=_policy(c),
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        clock_drift=False,
        seed=seed,
    )
    host = system.hosts[0]
    for i in range(trials):
        system.seed_grant("app", f"u{i}")
    successes = 0
    for i in range(trials):
        connectivity.resample()
        proc = host.request_access("app", f"u{i}")
        system.run(until=system.env.now + _TRIAL_WINDOW)
        if proc.value.allowed:
            successes += 1
    return successes, trials


def simulate_ps(m: int, c: int, pi: float, trials: int, seed: int) -> Tuple[int, int]:
    """Return (successes, trials) for the security experiment.

    A trial succeeds when the revoking manager's update quorum
    (``M - C + 1`` including itself) is reached within the trial
    window; connectivity is frozen for the window, so the event is
    exactly "at least M - C of the other M - 1 managers reachable".
    """
    connectivity = SampledConnectivity(pi)
    system = AccessControlSystem(
        n_managers=m,
        n_hosts=0,
        policy=_policy(c),
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        clock_drift=False,
        seed=seed + 7_777,
    )
    origin = system.managers[0]
    for i in range(trials):
        system.seed_grant("app", f"v{i}")
    successes = 0
    for i in range(trials):
        connectivity.resample()
        handle = origin.revoke("app", f"v{i}")
        system.run(until=system.env.now + _TRIAL_WINDOW)
        if handle.quorum.triggered:
            successes += 1
    return successes, trials


def simulate_cell(
    m: int, c: int, pi: float, trials: int, seed: int
) -> Tuple[int, int, int, int]:
    """One ``(m, C, Pi)`` cell: both PA and PS counts for that cell.

    The unit of parallel dispatch — a pure function of its arguments,
    so a worker process produces exactly what the sequential loop would.
    """
    pa_hits, pa_n = simulate_pa(m, c, pi, trials, seed)
    ps_hits, ps_n = simulate_ps(m, c, pi, trials, seed)
    return pa_hits, pa_n, ps_hits, ps_n


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
    cells = run_parallel(simulate_cell, tasks, jobs)
    rows: List[List[float]] = []
    all_within = True
    for (_m, c, pi, _t, _s), (pa_hits, pa_n, ps_hits, ps_n) in zip(tasks, cells):
        pa_hat, ps_hat = pa_hits / pa_n, ps_hits / ps_n
        pa_lo, pa_hi = wilson_interval(pa_hits, pa_n)
        ps_lo, ps_hi = wilson_interval(ps_hits, ps_n)
        pa_true = availability(m, c, pi)
        ps_true = security(m, c, pi)
        eps = 1e-9  # float slack at the CI boundaries
        if not (pa_lo - eps <= pa_true <= pa_hi + eps
                and ps_lo - eps <= ps_true <= ps_hi + eps):
            all_within = False
        rows.append(
            [pi, c, pa_true, pa_hat, pa_lo, pa_hi, ps_true, ps_hat, ps_lo, ps_hi]
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
