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
from ..core.host import AccessControlHost
from ..core.manager import AccessControlManager
from ..core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from ..core.rights import AclEntry, Right, Version
from ..sim.clock import LocalClock
from ..sim.engine import Environment
from ..runtime import run_parallel
from ..sim.network import FixedLatency, Network
from ..sim.trace import Tracer
from .base import ExperimentResult

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
    """Acceptance rates for fabricated and legitimate grants."""
    env = Environment()
    tracer = Tracer(env)
    network = Network(env, latency=FixedLatency(0.02), tracer=tracer)
    policy = AccessPolicy(
        check_quorum=check_quorum,
        byzantine_f=byzantine_f,
        expiry_bound=1e6,
        max_attempts=1,
        exhausted_action=ExhaustedAction.DENY,
        query_timeout=1.0,
        # Every liar gets to answer every check: the adversary's best case.
        query_strategy=QueryStrategy.PARALLEL,
        cache_cleanup_interval=None,
    )
    manager_addrs = tuple(f"m{i}" for i in range(n_managers))
    managers = []
    for index, addr in enumerate(manager_addrs):
        if index >= n_managers - liars:
            manager = LyingManager(
                addr, policy, mode=GRANT_ALL,
                collude_as="cartel" if collude else None,
            )
        else:
            manager = AccessControlManager(addr, policy)
        manager.manage("app", manager_addrs)
        network.register(manager)
        managers.append(manager)
    host = AccessControlHost(
        "h0", policy, managers={"app": manager_addrs}, clock=LocalClock(env)
    )
    network.register(host)
    for i in range(trials):
        entry = AclEntry(f"legit{i}", Right.USE, True, Version(1, ""))
        for manager in managers:
            manager.bootstrap("app", [entry])

    fabricated_accepted = 0
    legitimate_accepted = 0
    for i in range(trials):
        forged = host.request_access("app", f"revoked{i}")
        env.run(until=env.now + 3.0)
        if forged.value.allowed:
            fabricated_accepted += 1
        legit = host.request_access("app", f"legit{i}")
        env.run(until=env.now + 3.0)
        if legit.value.allowed:
            legitimate_accepted += 1
    return {
        "fabricated_rate": fabricated_accepted / trials,
        "legitimate_rate": legitimate_accepted / trials,
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
    rates_per_config = run_parallel(
        measure_rates,
        [config[1:] + (trials, seed) for config in configs],
        jobs,
    )
    rows: List[List] = [
        [label, m, c, f, liars,
         rates["fabricated_rate"], rates["legitimate_rate"]]
        for (label, m, c, f, liars, _collude), rates
        in zip(configs, rates_per_config)
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
