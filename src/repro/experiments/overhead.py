"""overhead: the paper's O(C/Te) steady-state cost claim.

Section 4.1: "The performance overhead of the access control algorithm
is naturally O(C/Te), since the access rights have to be checked every
Te time units and checking them involves communication with at least C
managers.  Thus, increasing Te reduces the overall overhead of the
protocol."

Setup: a fixed set of users accesses one host continuously (inter-access
time far below ``te``), with the SEQUENTIAL query strategy so a check
contacts exactly ``C`` managers when all are reachable.  Every cache
expiry then forces one C-manager check, so the predicted control
traffic is ``users * 2C / te`` messages per second (query + response
per contact).  The experiment sweeps ``C`` and ``Te`` and reports
measured vs predicted rate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.policy import QueryStrategy
from ..core.system import AccessControlSystem
from ..metrics.streaming import OverheadAccumulator
from ..workloads.generators import PeriodicWorkload
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_rate"]


def measure_rate(
    c: int,
    te: float,
    seed: int = 0,
    n_managers: int = 5,
    n_users: int = 5,
    access_interval: float = 1.0,
    duration_expiries: float = 20.0,
) -> Tuple[float, float]:
    """Predicted and measured control-message rate for one (C, Te)."""
    policy = cell_policy(  # b = 1, so te_local == Te: a clean prediction
        check_quorum=c,
        expiry_bound=te,
        query_strategy=QueryStrategy.SEQUENTIAL,
        retry_backoff=0.5,
    )
    system = AccessControlSystem.experiment_cell(
        policy, one_way=0.02, n_managers=n_managers, n_hosts=1, seed=seed
    )
    users = [f"u{i}" for i in range(n_users)]
    system.seed_grants("app", users)
    collector = OverheadAccumulator(system.tracer)
    duration = duration_expiries * te
    PeriodicWorkload(system, "app", users, think_time=access_interval, until=duration)
    system.run(until=duration)
    predicted = n_users * 2.0 * c / policy.te_local
    return predicted, collector.report(duration).control_rate


def run(
    cs: Sequence[int] = (1, 2, 4),
    tes: Sequence[float] = (30.0, 60.0, 120.0),
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    """Sweep C and Te; the measured/predicted ratio should stay ~1."""
    rows = run_grid(
        measure_rate, [(c, te, seed) for c in cs for te in tes], jobs,
        lambda c, te, _seed, rates: [c, te, *rates, rates[1] / rates[0]],
    )
    return ExperimentResult(
        experiment_id="overhead",
        title="Steady-state overhead is O(C/Te) (Section 4.1 cost model)",
        columns=["C", "Te", "predicted msg/s", "measured msg/s", "ratio"],
        rows=rows,
        notes=(
            "Prediction: users * 2C / te messages per second (sequential "
            "strategy, all managers reachable).  Doubling C doubles the "
            "rate; doubling Te halves it, as the paper claims.  The ratio "
            "sits slightly below 1 because each refresh happens at the "
            "first access *after* expiry (adds up to one access interval "
            "per period)."
        ),
        params={"seed": seed},
    )
