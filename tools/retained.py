#!/usr/bin/env python3
"""Retained bytes per read of one live ``bench_e2e`` workload, by allocation site.

The memory counterpart of ``tools/ab_pairs.py``: a re-runnable number
behind a memory claim.  It builds the workload's cell exactly as the
benchmark does (``bench_e2e.live.LiveBench``: same cell, same client
streams, same principal names), serves a warm-up of 200 reads, starts
``tracemalloc`` only then, serves ``--reads`` more reads and prints what
those reads left allocated, per source line::

    python3 tools/retained.py --workload live_miss --reads 4000

Only blocks allocated during the measured reads and still alive after
them (and a ``gc.collect()``) count, so seeding, warm-up and the cell
itself are excluded.  The sites include CPython's own free lists (a
few hundred freed tuples and dicts stay allocated), which do not grow
with ``--reads``.  The last stdout line is the report as one JSON
object.  Run it once per checkout to compare two trees.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import tracemalloc
from types import SimpleNamespace
from typing import Any, Dict, List

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from bench_e2e.live import LiveBench  # noqa: E402  (read-only: nothing is patched)

#: Read-only workloads: ``live_churn``'s writer runs only in a measured window.
WORKLOADS = ("live_miss", "live_hot")
WARM_UP = 200


def _sizing(reads: int) -> SimpleNamespace:
    """What ``LiveBench`` reads of ``bench_e2e.spec.Sizing``: enough
    unseen ``live_miss`` principals for the warm-up and every read (each
    of the two streams may start one read past the count)."""
    return SimpleNamespace(
        window_s=1.0, slices=1, hot_pool=64, hot_warmup=WARM_UP,
        miss_pool=WARM_UP + reads + 2, miss_warmup=WARM_UP,
        rss_after={name: 0 for name in WORKLOADS},
    )


async def _measure(workload: str, reads: int, seed: int):
    bench = LiveBench(workload, _sizing(reads), seed)
    await bench.setup()
    try:
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        await bench._run_reads(count=reads)
        if bench.failures:
            raise SystemExit(f"{workload}: {bench.failures[0]}")
        served = bench._attempted
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
    finally:
        await bench.close()
    return served, after.compare_to(before, "lineno")


def _site(stat: Any) -> str:
    frame = stat.traceback[0]
    path = frame.filename
    for marker in (os.sep + "src" + os.sep, os.sep + "lib" + os.sep):
        if marker in path:
            path = path.rsplit(marker, 1)[1]
            break
    return f"{path}:{frame.lineno}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default="live_miss")
    parser.add_argument("--reads", type=int, default=4000, help="measured reads (default 4000)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=15, help="sites printed (default 15)")
    args = parser.parse_args()
    if args.reads < 1:
        parser.error(f"argument --reads: {args.reads} is not positive")
    if args.top < 0:
        parser.error(f"argument --top: {args.top} is negative")
    served, stats = asyncio.run(_measure(args.workload, args.reads, args.seed))
    total = sum(stat.size_diff for stat in stats)
    sites: List[Dict[str, Any]] = [
        {"site": _site(stat), "bytes_per_read": stat.size_diff / served,
         "blocks_per_read": stat.count_diff / served}
        for stat in stats if stat.size_diff
    ]
    sites.sort(key=lambda row: -row["bytes_per_read"])
    print(f"{args.workload}: {served} reads, {total / served:.0f} retained bytes per read")
    for row in sites[:args.top]:
        print(f"  {row['bytes_per_read']:8.1f} B  {row['blocks_per_read']:5.2f} blocks  {row['site']}")
    print(json.dumps({
        "workload": args.workload, "reads": served, "seed": args.seed,
        "bytes_per_read": total / served, "sites": sites[:args.top],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
