"""byzantine: footnote 2 — lying managers, the attack and the defence.

The paper assumes managers "only experience crash or performance
failures" and notes the model "could be extended to Byzantine failures
[13]".  This experiment quantifies both sides of that extension:

* **The attack**: with the paper's crash-only combine (highest version
  wins), a single lying manager that fabricates grants with inflated
  versions gets every fabrication believed — security collapses to 0
  for users it chooses.
* **The defence**: requiring ``f + 1`` managers to vouch for the same
  (verdict, version) (``AccessPolicy(byzantine_f=f)``) blocks ``f``
  independent or even colluding liars, at the price of a larger check
  quorum (``2f + 1``-style sizing) and hence the availability cost
  Table 1 predicts for bigger C.

Measured: fabricated-grant acceptance rate and legitimate-grant success
rate across configurations with 0–2 liars.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.byzantine import GRANT_ALL, LyingManager
from ..core.cellspec import CellSpec
from ..core.system import AccessControlSystem
from .base import (
    ExperimentResult,
    access_trial,
    analysis_policy,
    run_grid,
    run_trials,
)

__all__ = ["run", "measure_rates"]


def measure_rates(
    n_managers: int,
    check_quorum: int,
    byzantine_f: int,
    liars: int,
    collude: bool,
    trials: int = 50,
    seed: int = 0,
) -> dict:
    """Acceptance rates for fabricated and legitimate grants.

    The last ``liars`` managers lie.  Every liar answers every check
    (the analysis policy asks all managers at once): the adversary's
    best case.
    """
    (honest,), _ = CellSpec.names(n_managers - liars)

    class Cell(AccessControlSystem):
        def _new_manager(self, address: str):
            if address in honest:
                return super()._new_manager(address)
            return self.spec.manager(
                address, LyingManager, mode=GRANT_ALL,
                collude_as="cartel" if collude else None,
            )

    # The attack admits fabricated grants on purpose, which the
    # invariant oracles would rightly flag: this cell runs without them.
    system = Cell.experiment_cell(
        analysis_policy(check_quorum, byzantine_f=byzantine_f),
        one_way=0.02, n_managers=n_managers, n_hosts=1, seed=seed,
        check_invariants=False,
    )
    system.seed_grants("app", (f"legit{i}" for i in range(trials)))

    # Trial 2k asks for a revoked user the liars vouch for, 2k + 1 for
    # a legitimate one.
    outcomes = run_trials(
        system.env, 2 * trials,
        access_trial(
            system.hosts[0], "app",
            lambda i: f"revoked{i // 2}" if i % 2 == 0 else f"legit{i // 2}",
        ),
    )
    return {
        "fabricated_rate": sum(outcomes[0::2]) / trials,
        "legitimate_rate": sum(outcomes[1::2]) / trials,
    }


def run(trials: int = 40, seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    configs = [
        # label, M, C, f, liars, collude
        ("crash-only combine, honest", 4, 3, 0, 0, False),
        ("crash-only combine, 1 liar", 4, 3, 0, 1, False),
        ("f=1 vouching, 1 liar", 4, 3, 1, 1, False),
        ("f=1 vouching, 2 colluding liars", 5, 3, 1, 2, True),
        ("f=2 vouching, 2 colluding liars", 7, 5, 2, 2, True),
    ]
    rates = run_grid(
        measure_rates, [config[1:] + (trials, seed) for config in configs], jobs
    )
    rows: List[List] = [
        [label, m, c, f, liars, rate["fabricated_rate"], rate["legitimate_rate"]]
        for (label, m, c, f, liars, _collude), rate in zip(configs, rates)
    ]
    return ExperimentResult(
        experiment_id="byzantine",
        title="Lying managers: the footnote-2 extension, attack and defence",
        columns=[
            "configuration", "M", "C", "f", "liars",
            "fabricated grants accepted", "legitimate grants accepted",
        ],
        rows=rows,
        notes=(
            "One GRANT_ALL liar defeats the crash-only combine completely "
            "(fabrication rate 1.0).  Requiring f+1 vouchers drops the "
            "fabrication rate to 0 while legitimate grants keep flowing; "
            "f must be sized for the colluding-adversary case (f=1 falls "
            "to a 2-liar cartel, f=2 stands)."
        ),
        params={"trials": trials, "seed": seed},
    )
