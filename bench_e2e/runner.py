"""One workload, in this process: set-up, measured window(s), oracles, result.

The untraced run measures the end-to-end metrics.  The traced run splits
a window of the same total work in two — an untraced *reference* third,
then a *traced* third with the span wrappers installed — so tracing
overhead is the ratio of two windows of one process on one cell, and the
per-layer numbers never contaminate the end-to-end ones.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from . import spec
from .layers import LayerProbe
from .live import CHECK_QUORUM as LIVE_QUORUM
from .live import LiveBench
from .simcell import CHECK_QUORUM as SIM_QUORUM
from .simcell import SimBench
from .stats import median_of_slices
from .trace import SpanRecorder

__all__ = ["run", "OUT_DIR", "PACKAGE_DIR"]

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(PACKAGE_DIR, "out")

#: Set-ups per untraced run (this process plus fresh ``--setup-only``
#: processes); ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spread(slices: List[Dict[str, float]]) -> float:
    rates = [row["req_per_s"] for row in slices]
    middle = statistics.median(rates)
    return (max(rates) - min(rates)) / middle if middle else 0.0


def _e2e_values(workload: str, window: Dict[str, Any]) -> Dict[str, float]:
    """Every end-to-end metric a window defines.

    Timings and rates are the median of the slices; the two cost counts
    are totals over the window, so on ``sim_cell`` they repeat exactly.
    """
    skip = ("setup_s", "peak_rss_mb")
    values = {
        metric.name: median_of_slices(window["slices"], metric.name)
        for metric in spec.e2e_for(workload)
        if metric.name not in skip
    }
    values["msgs_per_req"] = window["counters"]["messages"] / window["reads"]
    if "wire_bytes_per_req" in values:
        values["wire_bytes_per_req"] = window["counters"]["bytes"] / window["reads"]
    return values


def _loadgen_metrics(workload: str, reference: Dict[str, Any]) -> Dict[str, float]:
    """The generator's view of the untraced reference window."""
    values = _e2e_values(workload, reference)
    metrics = {
        f"loadgen.{name}": values.get(name, 0.0)
        for name in ("req_p50_ms", "req_p90_ms", "wire_bytes_per_req",
                     "update_p50_ms", "revoke_lag_p50_ms", "revoke_lag_p90_ms")
    }
    slices = reference["slices"]
    metrics["loadgen.req_p99_ms"] = (
        median_of_slices(slices, "req_p99_ms") if "req_p99_ms" in slices[0] else 0.0
    )
    metrics["loadgen.slice_spread"] = _spread(slices)
    return metrics


def _layer_metrics(
    workload: str,
    probe: LayerProbe,
    reference: Dict[str, Any],
    traced: Dict[str, Any],
    check_quorum: int,
) -> Dict[str, float]:
    """All per-layer metrics of one traced run; 0 where a layer did no work."""
    reqs = traced["reads"]
    counters = dict(traced["counters"], check_quorum=check_quorum)
    metrics = {metric.name: 0.0 for metric in spec.PER_LAYER}
    metrics.update(probe.protocol_metrics(reqs, counters))
    metrics["core.cache.entries"] = float(traced["totals"]["cache_entries"])
    metrics["core.manager.grant_table_entries"] = float(traced["totals"]["grant_table_entries"])
    if workload == "sim_cell":
        events = traced["events"]
        engine_ns = probe.rec.layer_self_ns("sim.engine")
        metrics.update(probe.sim_metrics(reqs, counters["messages"]))
        metrics["sim.engine.events_per_check"] = events / reqs
        metrics["sim.engine.events_per_s"] = events / traced["wall_s"]
        metrics["sim.engine.self_us_per_event"] = engine_ns / 1e3 / events
        metrics["sim.engine.dead_pop_ratio"] = counters["dead_pops"] / events
        metrics["sim.network.drop_ratio"] = counters["dropped"] / counters["net_sent"]
        metrics["sim.partitions.epoch_flips"] = float(counters["epoch"])
        # Wall-clock waits mean nothing on a simulated clock.
        for name in ("protocols.planner.round_wait_p50_ms",
                     "protocols.dissemination.quorum_wait_p50_ms",
                     "protocols.revocation.forward_to_flush_p50_ms"):
            metrics[name] = 0.0
    else:
        metrics.update(probe.live_metrics(reqs))
        metrics["net.runtime.cpu_util"] = traced["cpu_s"] / traced["wall_s"]
        metrics["net.tcp.msgs_per_req"] = counters["messages"] / reqs
        metrics["net.tcp.segments_per_req"] = counters["segments"] / reqs
        metrics["net.tcp.msgs_per_segment"] = (
            counters["segment_msgs"] / counters["segments"] if counters["segments"] else 0.0
        )
        metrics["net.session.rejected"] = float(traced["totals"]["rejected"])
    metrics.update(_loadgen_metrics(workload, reference))
    untraced_rate = reference["reads"] / reference["wall_s"]
    metrics["trace.overhead_ratio"] = 1.0 - (reqs / traced["wall_s"]) / untraced_rate
    metrics["trace.unattributed_ratio"] = 1.0 - probe.rec.total_self_ns() / 1e9 / traced["cpu_s"]
    return metrics


def _live_oracle(workload: str, bench: LiveBench, windows: List[Dict[str, Any]]) -> List[str]:
    failures = list(bench.failures)
    for window in windows:
        counters = window["counters"]
        if workload == "live_hot" and counters["hits"] != counters["checks"]:
            failures.append(
                f"live_hot: {counters['checks'] - counters['hits']} checks missed the cache"
            )
        if workload == "live_miss" and counters["hits"] != 0:
            failures.append(f"live_miss: {counters['hits']} checks hit the cache")
        if window["totals"]["rejected"]:
            failures.append(f"{window['totals']['rejected']} session frames rejected")
        if counters["dropped"]:
            failures.append(f"{counters['dropped']} messages dropped on loopback")
        if workload == "live_churn" and not window["lag_samples"]:
            failures.append("live_churn: no revocation completed in the window")
    return failures


async def _run_live(
    workload: str, size: spec.Sizing, seed: int, trace: bool, t0: float, setup_only: bool
) -> Dict[str, Any]:
    bench = LiveBench(workload, size, seed)
    probe: Optional[LayerProbe] = None
    try:
        await bench.setup()
        result: Dict[str, Any] = {"setup_s": time.perf_counter() - t0}
        if setup_only:
            return result
        if not trace:
            windows = [await bench.measure(size.window_s)]
            result["peak_rss_mb"] = bench.peak_rss_mb or _peak_rss_mb()
        else:
            reference = await bench.measure(size.window_s / 3)
            probe = LayerProbe(SpanRecorder())
            probe.install_live(bench)
            try:
                traced = await bench.measure(size.window_s / 3)
            finally:
                probe.rec.unwrap_all()
            windows = [reference, traced]
    finally:
        await bench.close()
    result.update(windows=windows, probe=probe, check_quorum=LIVE_QUORUM,
                  failures=_live_oracle(workload, bench, windows))
    return result


def _run_sim(size: spec.Sizing, trace: bool, t0: float, setup_only: bool) -> Dict[str, Any]:
    bench = SimBench(size)
    bench.setup()
    result: Dict[str, Any] = {"setup_s": time.perf_counter() - t0}
    if setup_only:
        return result
    probe: Optional[LayerProbe] = None
    if not trace:
        windows = [bench.measure(size.sim_horizon)]
        result["peak_rss_mb"] = _peak_rss_mb()
    else:
        reference = bench.measure(size.sim_horizon / 3)
        probe = LayerProbe(SpanRecorder())
        probe.install_sim(bench.scenario)
        try:
            traced = bench.measure(size.sim_horizon / 3, probe.rec)
        finally:
            probe.rec.unwrap_all()
        windows = [reference, traced]
    bench.replay_check()
    result.update(windows=windows, probe=probe, check_quorum=SIM_QUORUM, failures=bench.failures)
    return result


def _setup_probe(workload: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh process that sets up, tears down and exits."""
    command = [sys.executable, "-m", "bench_e2e", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--setup-only"]
    done = subprocess.run(command, cwd=os.path.dirname(PACKAGE_DIR), capture_output=True,
                          text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    t0: float,
    smoke: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one workload; returns the result document (also written to ``out/``)."""
    size = spec.sizing(seconds, smoke)
    if workload == "sim_cell":
        raw = _run_sim(size, trace, t0, setup_only)
    else:
        raw = asyncio.run(_run_live(workload, size, seed, trace, t0, setup_only))
    if setup_only:
        return raw
    windows = raw["windows"]
    document: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "sizing": asdict(size),
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "injected_delay_ms": 0,
            "note": (
                "simulated clock, fixed work; rates are per wall second"
                if workload == "sim_cell"
                else "closed loop, 2 streams, loopback TCP: latency is processor time plus loopback"
            ),
        },
        "ops_attempted": sum(w["ops_attempted"] for w in windows),
        "ops_failed": sum(w["ops_failed"] for w in windows),
        "failures": raw["failures"][:20],
    }
    document["correct"] = not raw["failures"] and document["ops_failed"] == 0
    os.makedirs(OUT_DIR, exist_ok=True)
    if not trace:
        samples = [raw["setup_s"]]
        if not smoke:
            samples += [_setup_probe(workload, seed, seconds)
                        for _ in range(SETUP_SAMPLES - 1)]
        values = _e2e_values(workload, windows[0])
        values["setup_s"] = statistics.median(samples)
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        declared = spec.e2e_for(workload)
        document["setup_samples_s"] = samples
        document["window"] = windows[0]
        path = os.path.join(OUT_DIR, f"{workload}.json")
    else:
        probe: LayerProbe = raw["probe"]
        values = _layer_metrics(workload, probe, windows[0], windows[1], raw["check_quorum"])
        declared = spec.PER_LAYER
        document["reference_window"], document["traced_window"] = windows
        document["layers"] = {n: s.as_dict() for n, s in sorted(probe.rec.stats.items())}
        document["sent_message_types"] = dict(probe.sent_types)
        span_path = os.path.join(OUT_DIR, f"{workload}.trace.json")
        probe.rec.write(span_path, {"workload": workload, "seed": seed, "seconds": seconds})
        document["span_file"] = os.path.relpath(span_path, os.path.dirname(PACKAGE_DIR))
        path = os.path.join(OUT_DIR, f"{workload}.traced.json")
    document["metrics"] = {
        metric.name: {"value": values[metric.name], "unit": metric.unit} for metric in declared
    }
    document["claim"] = None
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return document

