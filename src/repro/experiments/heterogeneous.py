"""heterogeneous: Section 4.1's closing analysis.

"In most realistic systems, site inaccessibility probabilities are much
more heterogeneous than assumed above and furthermore, the
probabilities are often dependent on one another ...  Note that even if
there is one manager that is frequently inaccessible from the others,
the overall security of the system can be seriously reduced if this
manager frequently issues and revokes access rights.  Therefore, the
assignment of managers to sites should be such that the inaccessibility
between these sites is minimized."

Three sub-results:

1. **Heterogeneous managers** — five reliable managers plus one flaky
   one: per-manager security, then the system security under uniform vs
   update-frequency weighting (the flaky manager issuing most updates),
   reproducing the quoted warning quantitatively.
2. **Correlated failures** — three of six managers behind one shared
   WAN link: Monte-Carlo availability vs the independent approximation
   with the same marginals; correlation hurts exactly where the paper's
   independence assumption is most load-bearing (middle C).
"""

from __future__ import annotations

import random
from typing import List

from ..analysis.heterogeneous import (
    CorrelatedInaccessibility,
    PairwiseInaccessibility,
    poisson_binomial_tail,
)
from ..core.cellspec import CellSpec
from .base import ExperimentResult

__all__ = ["run", "flaky_manager_model", "shared_link_model"]


def flaky_manager_model(
    m: int = 6, base_pi: float = 0.05, flaky_pi: float = 0.5
) -> PairwiseInaccessibility:
    """m managers, the last one hard to reach from everywhere."""
    (managers,), _ = CellSpec.names(m)
    flaky = managers[-1]

    def pi_between(a: str, b: str) -> float:
        return flaky_pi if flaky in (a, b) else base_pi

    return PairwiseInaccessibility(
        managers=managers,
        manager_to_manager={
            a: {b: pi_between(a, b) for b in managers if b != a} for a in managers
        },
    )


def shared_link_model(
    m: int = 6, private_pi: float = 0.05, shared_pi: float = 0.2
) -> CorrelatedInaccessibility:
    """Half the managers sit behind one failure-prone shared link."""
    (managers,), _ = CellSpec.names(m)
    groups = {mgr: ("behind-link" if i < m // 2 else "direct")
              for i, mgr in enumerate(managers)}
    return CorrelatedInaccessibility(
        managers=managers,
        private_pi={mgr: private_pi for mgr in managers},
        groups=groups,
        shared_pi={"behind-link": shared_pi, "direct": 0.0},
    )


def run(check_quorum: int = 3, samples: int = 20_000, seed: int = 0
        ) -> ExperimentResult:
    rows: List[List] = []

    # -- 1. the flaky-manager warning -----------------------------------------
    model = flaky_manager_model()
    for origin in model.managers:
        rows.append(["security", origin, "-", model.manager_security(origin, check_quorum)])
    uniform = model.system_security(check_quorum)
    # The flaky manager issues 80% of all updates.
    heavy_flaky = {mgr: 0.04 for mgr in model.managers}
    heavy_flaky[model.managers[-1]] = 0.8
    weighted = model.system_security(check_quorum, update_frequency=heavy_flaky)
    rows.append(["security", "system", "uniform weights", uniform])
    rows.append(["security", "system", "flaky issues 80%", weighted])

    # -- 2. correlated vs independent availability -------------------------------
    correlated = shared_link_model()
    rng = random.Random(seed)
    for c in (2, check_quorum, 4, 5):
        mc = correlated.availability(c, rng, samples=samples)
        independent = poisson_binomial_tail(
            [1.0 - correlated.marginal_pi(mgr) for mgr in correlated.managers], c
        )
        rows.append(["availability", f"C={c}", "correlated (MC)", mc])
        rows.append(["availability", f"C={c}", "independent approx", independent])

    return ExperimentResult(
        experiment_id="heterogeneous",
        title="Heterogeneous and correlated inaccessibility (Section 4.1, "
        "closing analysis)",
        columns=["quantity", "site / C", "model", "probability"],
        rows=rows,
        notes=(
            "Top: one flaky manager barely moves the uniform system "
            "security, but dominates it when that manager issues most "
            "updates — the paper's warning.  Bottom: a shared link "
            "correlates failures; the independent approximation with the "
            "same marginals overestimates availability at mid-range C."
        ),
        params={"C": check_quorum, "samples": samples, "seed": seed},
    )
