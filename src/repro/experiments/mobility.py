"""mobility: the paper's footnote 1, quantified.

"Although we focus here on wired networks, similar problems exist in
mobile computing systems, so our solutions could be applied in this
context as well."

Setup: the application host is a *mobile* node that cycles between
connected and disconnected (``DutyCycleModel``); its user keeps
accessing a locally hosted application (reading cached content is the
natural mobile pattern).  Three policies are compared across
disconnected fractions:

* strict (C=2, finite R, deny) — every verification failure while
  roaming denies;
* long-Te (same, but Te 10x longer) — the cache bridges disconnections;
* Figure 4 default-allow — availability is total, security is not.

The shape: availability under mobility is bought either with longer
``Te`` (weaker revocation bound) or with default-allow (no security on
misses) — the same tradeoff the paper describes for wired partitions,
shifted by the client's duty cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.policy import AccessPolicy, ExhaustedAction
from ..core.system import AccessControlSystem
from ..sim.partitions import DutyCycleModel
from ..workloads.generators import ObservedDecision, PeriodicWorkload
from .base import ExperimentResult, cell_policy, run_grid

__all__ = ["run", "measure_mobile_availability"]

_MOBILE = dict(check_quorum=2, max_attempts=2, retry_backoff=0.5)

#: The three policies compared, by row label.
_POLICIES = {
    "strict (Te=30)": cell_policy(expiry_bound=30.0, **_MOBILE),
    "long cache (Te=300)": cell_policy(expiry_bound=300.0, **_MOBILE),
    "default-allow (Te=30)": cell_policy(
        expiry_bound=30.0, exhausted_action=ExhaustedAction.ALLOW, **_MOBILE
    ),
}


def measure_mobile_availability(
    policy: AccessPolicy,
    disconnected_fraction: float,
    seed: int = 0,
    mean_connected: float = 60.0,
    duration: float = 3_000.0,
    access_interval: float = 5.0,
) -> float:
    """Fraction of the mobile user's accesses that succeed."""
    mean_disconnected = (
        mean_connected * disconnected_fraction / (1.0 - disconnected_fraction)
    )
    connectivity = DutyCycleModel(
        targets=("h0",),
        mean_connected=mean_connected,
        mean_disconnected=mean_disconnected,
    )
    system = AccessControlSystem.experiment_cell(
        policy, n_managers=3, n_hosts=1, connectivity=connectivity, seed=seed
    )
    system.seed_grant("app", "roamer")
    observed: List[ObservedDecision] = []
    PeriodicWorkload(
        system, "app", ["roamer"], think_time=access_interval, until=duration,
        on_decision=observed.append,
    )
    system.run(until=duration + 50.0)
    if not observed:
        return float("nan")
    return sum(o.decision.allowed for o in observed) / len(observed)


def run(
    fractions: Sequence[float] = (0.1, 0.3, 0.5),
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> ExperimentResult:
    label = {policy: name for name, policy in _POLICIES.items()}
    rows = run_grid(
        measure_mobile_availability,
        [(policy, fraction, seed) for policy in _POLICIES.values()
         for fraction in fractions],
        jobs,
        lambda policy, fraction, _seed, measured: [label[policy], fraction, measured],
    )
    return ExperimentResult(
        experiment_id="mobility",
        title="Mobile clients (footnote 1): availability vs disconnected "
        "fraction under three policies",
        columns=["policy", "disconnected fraction", "availability"],
        rows=rows,
        notes=(
            "A mobile host cycles connectivity; its user reads every 5 s.  "
            "Longer Te bridges disconnections at the price of a weaker "
            "revocation bound; Figure 4's default-allow buys full "
            "availability at the price of unverified accesses.  The strict "
            "policy tracks the connected fraction."
        ),
        params={"seed": seed, "mean_connected": 60.0},
    )
