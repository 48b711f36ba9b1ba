#!/usr/bin/env python3
"""Miss latency under partitions, per query strategy, on the ``sim_cell`` scenario.

What the default ``QueryStrategy`` costs when managers are unreachable,
which loopback sockets cannot show::

    PYTHONPATH=src python3 tools/miss_latency.py --seeds 1 2 3 4 5 6

Runs the scenario ``bench_e2e``'s ``sim_cell`` workload measures (5
managers, C = 3, 8 hosts, 5000 users, ``PairEpochModel(0.1, 30)``
partitions, host and manager crashes — built here from
``repro.workloads.scenarios``, same arguments) once per scenario seed
and variant: ``parallel``, ``quorum``, and ``quorum-forgetful`` — the
quorum cut with the hosts' silent sets disabled, i.e. the naive
"ask C, widen on timeout".  For every check that went to the managers it
takes the decision latency and prints p50 / p90 / the share slower than
``query_timeout / 2`` per seed, then the median over seeds; alongside,
messages per check and accesses allowed past ``Te`` after a revocation
(must be 0).  The last stdout line is the table as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List

from repro.core.policy import AccessPolicy, QueryStrategy
from repro.metrics.estimators import percentile
from repro.sim.partitions import PairEpochModel
from repro.workloads.scenarios import steady_state_scenario

WARMUP = 50.0
VARIANTS = {
    "parallel": QueryStrategy.PARALLEL,
    "quorum": QueryStrategy.QUORUM,
    "quorum-forgetful": QueryStrategy.QUORUM,
}


class _Forgetful(set):
    """A silent set that never learns: every round asks the plain rotation."""

    def add(self, _manager) -> None:
        pass


def run(variant: str, seed: int, horizon: float) -> Dict[str, float]:
    policy = AccessPolicy(check_quorum=3, expiry_bound=60, query_strategy=VARIANTS[variant])
    scenario = steady_state_scenario(
        policy, n_managers=5, n_hosts=8, n_users=5000, authorized_fraction=0.8,
        access_rate=200, update_rate=1.0, connectivity=PairEpochModel(0.1, 30),
        host_failures=(600, 30), manager_failures=(900, 30), seed=seed,
    )
    if variant == "quorum-forgetful":
        for host in scenario.system.hosts:
            host._silent = _Forgetful()
    latencies: List[float] = []
    tally = {"checks": 0, "violations": 0}

    def on_decision(observed) -> None:
        if observed.time < WARMUP:
            return
        tally["checks"] += 1
        if observed.decision.attempts:
            latencies.append(observed.decision.latency)
        if observed.decision.allowed and scenario.oracle.violation(
            observed.application, observed.user, observed.time
        ):
            tally["violations"] += 1

    scenario.access.on_decision = on_decision
    scenario.run(WARMUP)
    sent = scenario.tracer.counts().get("msg_sent", 0)
    scenario.run(WARMUP + horizon)
    sent = scenario.tracer.counts().get("msg_sent", 0) - sent
    return {
        "misses": len(latencies),
        "p50_s": percentile(latencies, 50),
        "p90_s": percentile(latencies, 90),
        "slow_share": sum(1 for x in latencies if x > policy.query_timeout / 2) / len(latencies),
        "msgs_per_check": sent / tally["checks"],
        "te_violations": tally["violations"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--horizon", type=float, default=600.0, help="measured sim-seconds")
    args = parser.parse_args()
    table: Dict[str, Dict] = {}
    print(f"{'variant':<17} {'seed':>6} {'misses':>7} {'p50 s':>7} {'p90 s':>7} "
          f"{'> timeout/2':>11} {'msgs/check':>10} {'Te viol.':>8}")
    for variant in VARIANTS:
        rows = {seed: run(variant, seed, args.horizon) for seed in args.seeds}
        median = {
            key: statistics.median(row[key] for row in rows.values())
            for key in ("misses", "p50_s", "p90_s", "slow_share", "msgs_per_check")
        }
        median["te_violations"] = sum(row["te_violations"] for row in rows.values())
        for label, row in [*rows.items(), ("median", median)]:
            print(f"{variant:<17} {label!s:>6} {row['misses']:>7.0f} {row['p50_s']:>7.3f} "
                  f"{row['p90_s']:>7.3f} {row['slow_share']:>11.4f} "
                  f"{row['msgs_per_check']:>10.4f} {row['te_violations']:>8}")
        table[variant] = {"seeds": rows, "median": median}
    print(json.dumps(table, sort_keys=True))


if __name__ == "__main__":
    main()
