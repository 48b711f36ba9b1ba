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

from typing import List, Sequence

from ..core.policy import AccessPolicy, QueryStrategy
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..metrics.streaming import OverheadAccumulator
from ..sim.network import FixedLatency
from .base import ExperimentResult

__all__ = ["run", "measure_rate"]


def measure_rate(
    c: int,
    te: float,
    n_managers: int = 5,
    n_users: int = 5,
    access_interval: float = 1.0,
    duration_expiries: float = 20.0,
    seed: int = 0,
) -> dict:
    """Measured and predicted control-message rate for one (C, Te)."""
    policy = AccessPolicy(
        check_quorum=c,
        expiry_bound=te,
        clock_bound=1.0,  # te_local == Te: clean prediction
        query_timeout=1.0,
        query_strategy=QueryStrategy.SEQUENTIAL,
        retry_backoff=0.5,
        cache_cleanup_interval=None,
    )
    system = AccessControlSystem(
        n_managers=n_managers,
        n_hosts=1,
        policy=policy,
        latency=FixedLatency(0.02),
        clock_drift=False,
        seed=seed,
    )
    users = [f"u{i}" for i in range(n_users)]
    system.seed_grants("app", users)
    host = system.hosts[0]
    collector = OverheadAccumulator(system.tracer)
    duration = duration_expiries * te

    def driver(user: str):
        while system.env.now < duration:
            yield host.request_access("app", user, Right.USE)
            yield system.env.timeout(access_interval)

    for user in users:
        system.env.process(driver(user), name=f"drive:{user}")
    system.run(until=duration)
    report = collector.report(duration)
    predicted = n_users * 2.0 * c / policy.te_local
    return {
        "C": c,
        "Te": te,
        "measured_rate": report.control_rate,
        "predicted_rate": predicted,
        "ratio": report.control_rate / predicted if predicted else float("nan"),
        "control_messages": report.control_messages,
    }


def run(
    cs: Sequence[int] = (1, 2, 4),
    tes: Sequence[float] = (30.0, 60.0, 120.0),
    seed: int = 0,
) -> ExperimentResult:
    """Sweep C and Te; the measured/predicted ratio should stay ~1."""
    rows: List[List[float]] = []
    for c in cs:
        for te in tes:
            cell = measure_rate(c, te, seed=seed)
            rows.append(
                [
                    cell["C"],
                    cell["Te"],
                    cell["predicted_rate"],
                    cell["measured_rate"],
                    cell["ratio"],
                ]
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
