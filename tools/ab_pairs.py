#!/usr/bin/env python3
"""Alternating parent/change runs of one ``bench_e2e`` workload.

The measurement protocol PRs 14-16 used to claim a gain, as one command::

    python3 tools/ab_pairs.py --parent /root/scratch/parent --change . \\
        --workload live_miss --seed 11 --pairs 10

Each pair runs ``python3 -m bench_e2e --workload W --seed S --seconds 20
--trace 0`` once in each checkout, alternating which side goes first.
For every end-to-end metric in the change's ``BENCHMARK.json`` it prints
each side's median and quartiles, how many pairs the change won (ties
count for neither), and whether the median gap exceeds the distance
between the parent's own quartiles.  The last stdout line is the same
report as one JSON object; every run made is in it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One untraced run in ``checkout``; its end-to-end metrics plus ``ops_failed``."""
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: bench_e2e exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    row = {name: float(metric["value"]) for name, metric in result["metrics"].items()}
    row["ops_failed"] = float(result["failed"])
    return row


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` (inclusive method, so two runs already have a spread)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(name: str, better: str, parent: List[float], change: List[float]) -> Dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (c_q[1] - p_q[1])
    return {
        "metric": name, "better": better, "parent": p_q, "change": c_q,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "median_gain_ratio": gap / p_q[1] if p_q[1] else 0.0,
        "gap_exceeds_parent_iqr": gap > (p_q[2] - p_q[0]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout of the change (default: .)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        gated = [(m["name"], m["better"]) for m in json.load(handle)["end_to_end"]]
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    checkouts = {"parent": args.parent, "change": args.change}
    for pair in range(args.pairs):
        for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
            row = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(row)
            print(f"pair {pair + 1:2d} {side:6s} " + "  ".join(
                f"{name}={row[name]:.4g}" for name, _ in gated
            ) + f"  ops_failed={row['ops_failed']:.0f}", flush=True)

    summary = [
        summarise(name, better, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
        for name, better in gated
    ]
    for row in summary:
        print("{metric:16s} parent {parent[1]:.4g} [{parent[0]:.4g}, {parent[2]:.4g}]  "
              "change {change[1]:.4g} [{change[0]:.4g}, {change[2]:.4g}]  "
              "wins {wins}/{pairs} (losses {losses})  gain {median_gain_ratio:+.1%}  "
              "beyond parent IQR: {gap_exceeds_parent_iqr}".format(**row))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops_failed": {side: sum(r["ops_failed"] for r in rows) for side, rows in runs.items()},
        "summary": summary, "runs": runs,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
