"""The benchmark's contract: workloads, metrics, bounds, and sizing.

Names here are what later changes are judged by; ``BENCHMARK.json`` at
the repo root repeats the driver-facing part and ``--smoke`` checks the
two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "WORKLOADS",
    "LIVE_WORKLOADS",
    "Metric",
    "E2E",
    "DRIVER_E2E",
    "PER_LAYER",
    "e2e_for",
    "Sizing",
    "sizing",
    "DESIGN_SECONDS",
    "DEFAULT_SECONDS",
    "DEFAULT_SEED",
]

#: name -> one-line reason (repeated in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "live_hot": (
        "64 granted principals reused over real sockets: every check hits ACL_cache, "
        "so only client-host link, runtime driver, wrapper and cache probe work"
    ),
    "live_miss": (
        "every request a never-seen principal out of 60000: each check is one parallel "
        "query round to 3 managers with signed answers, bypassing the cache hit path"
    ),
    "live_churn": (
        "Te=5s reader beside a revoke/add writer: dissemination, revocation forwarding "
        "and cache flushes run beside the reads live_hot does alone"
    ),
    "sim_cell": (
        "5000-user simulated cell under partitions and crashes: the same core/protocols "
        "code with no sockets, codec or MACs, on the discrete-event engine"
    ),
}
LIVE_WORKLOADS = ("live_hot", "live_miss", "live_churn")

#: The windows the workloads were designed at; ``--seconds`` scales all
#: four by one common factor (live window = seconds, sim horizon =
#: seconds x SIM_S_PER_SECOND).
DESIGN_SECONDS = 30
DEFAULT_SECONDS = 20
DEFAULT_SEED = 1
SLICES = 5
SIM_S_PER_SECOND = 1000.0 / DESIGN_SECONDS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # share of the parent's median it may worsen by (end-to-end only)
    workloads: Tuple[str, ...] = tuple(WORKLOADS)


_LIVE = LIVE_WORKLOADS
_CHURN = ("live_churn",)

#: End-to-end metrics.  On ``sim_cell`` a request is one decided access
#: check, so ``req_per_s`` is simulated checks per wall second and
#: ``msgs_per_req`` the paper's cost unit, protocol messages per check.
E2E: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("req_per_s", "1/s", "higher", 0.20),
    Metric("cpu_ms_per_req", "ms", "lower", 0.20),
    Metric("msgs_per_req", "count", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("req_p50_ms", "ms", "lower", 0.15, _LIVE),
    Metric("req_p90_ms", "ms", "lower", 0.15, _LIVE),
    Metric("wire_bytes_per_req", "B", "lower", 0.02, _LIVE),
    Metric("update_p50_ms", "ms", "lower", 0.20, _CHURN),
    Metric("revoke_lag_p50_ms", "ms", "lower", 0.10, _CHURN),
    Metric("revoke_lag_p90_ms", "ms", "lower", 0.25, _CHURN),
]

#: The end-to-end metrics defined on every workload: the driver requires
#: each gated metric from each workload, so these are what it gates.
#: The rest are gated by ``python -m bench_e2e repeat`` and recorded by
#: the driver, ungated, as the ``loadgen.*`` rows of the traced run.
DRIVER_E2E: List[Metric] = [m for m in E2E if m.workloads == tuple(WORKLOADS)]


def e2e_for(workload: str) -> List[Metric]:
    return [m for m in E2E if workload in m.workloads]


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better)


#: Per-layer metrics, reported by the traced run for every workload (0
#: where the layer does no work).  Layers are this repo's modules.
PER_LAYER: List[Metric] = [
    _layer("net.runtime.passes_per_req", "count"),
    _layer("net.runtime.self_us_per_req", "us"),
    _layer("net.runtime.cpu_util", "ratio", "higher"),
    _layer("net.tcp.msgs_per_req", "count"),
    _layer("net.tcp.segments_per_req", "count"),
    _layer("net.tcp.msgs_per_segment", "count", "higher"),
    _layer("net.tcp.self_us_per_req", "us"),
    _layer("net.session.macs_per_req", "count"),
    _layer("net.session.self_us_per_req", "us"),
    _layer("net.session.rejected", "count"),
    _layer("net.codec_bin.encode_us_per_msg", "us"),
    _layer("net.codec_bin.decode_us_per_msg", "us"),
    _layer("net.codec_bin.bytes_per_msg", "B"),
    _layer("net.codec_bin.dict_entries", "count"),
    _layer("net.codec.json_us_per_msg", "us"),
    _layer("net.codec.json_bytes_per_msg", "B"),
    _layer("core.client.self_us_per_req", "us"),
    _layer("core.wrapper.self_us_per_req", "us"),
    _layer("protocols.pipeline.self_us_per_check", "us"),
    _layer("protocols.pipeline.hit_ratio", "ratio", "higher"),
    _layer("protocols.pipeline.rounds_per_miss", "count"),
    _layer("core.cache.probe_us", "us"),
    _layer("core.cache.store_us", "us"),
    _layer("core.cache.flush_us", "us"),
    _layer("core.cache.entries", "count"),
    _layer("protocols.planner.self_us_per_round", "us"),
    _layer("protocols.planner.round_wait_p50_ms", "ms"),
    _layer("protocols.combiner.self_us_per_round", "us"),
    _layer("protocols.combiner.used_response_ratio", "ratio", "higher"),
    _layer("protocols.query.self_us_per_answer", "us"),
    _layer("protocols.query.answers_per_req", "count"),
    _layer("core.manager.self_us_per_msg", "us"),
    _layer("core.manager.grant_table_entries", "count"),
    _layer("auth.sign_us", "us"),
    _layer("auth.verify_us", "us"),
    _layer("auth.signs_per_req", "count"),
    _layer("auth.verifies_per_req", "count"),
    _layer("protocols.dissemination.self_us_per_update", "us"),
    _layer("protocols.dissemination.msgs_per_update", "count"),
    _layer("protocols.dissemination.quorum_wait_p50_ms", "ms"),
    _layer("protocols.revocation.notifies_per_revoke", "count"),
    _layer("protocols.revocation.forward_to_flush_p50_ms", "ms"),
    _layer("sim.engine.events_per_check", "count"),
    _layer("sim.engine.events_per_s", "1/s", "higher"),
    _layer("sim.engine.self_us_per_event", "us"),
    _layer("sim.engine.dead_pop_ratio", "ratio"),
    _layer("sim.network.self_us_per_msg", "us"),
    _layer("sim.network.drop_ratio", "ratio"),
    _layer("sim.partitions.self_us_per_msg", "us"),
    _layer("sim.partitions.epoch_flips", "count"),
    _layer("workloads.self_us_per_check", "us"),
    # The load generator's view in the traced run's *untraced* reference
    # window: diagnostics, and the end-to-end metrics the driver cannot
    # gate because they are not defined on every workload.
    _layer("loadgen.req_p50_ms", "ms"),
    _layer("loadgen.req_p90_ms", "ms"),
    _layer("loadgen.req_p99_ms", "ms"),
    _layer("loadgen.slice_spread", "ratio"),
    _layer("loadgen.wire_bytes_per_req", "B"),
    _layer("loadgen.update_p50_ms", "ms"),
    _layer("loadgen.revoke_lag_p50_ms", "ms"),
    _layer("loadgen.revoke_lag_p90_ms", "ms"),
    _layer("trace.overhead_ratio", "ratio"),
    _layer("trace.unattributed_ratio", "ratio"),
]


@dataclass(frozen=True)
class Sizing:
    """How big one run of a workload is."""

    window_s: float      # live: measured wall seconds
    sim_horizon: float   # sim_cell: measured sim-seconds (fixed work)
    sim_warmup: float    # sim_cell: warm-up sim-seconds
    sim_users: int
    hot_pool: int        # live_hot / live_churn: granted principals
    hot_warmup: int      # live_hot / live_churn: warm-up requests
    miss_pool: int       # live_miss: seeded principals
    miss_warmup: int
    rss_after: Dict[str, int]  # live: measured reads after which peak RSS is read
    slices: int = SLICES


#: ``peak_rss_mb`` is read once this many measured reads per window
#: second have completed — about 60% of what this box serves — so that
#: serving *more* requests in the window does not read as using more
#: memory (hosts keep a record of every request they served).
_RSS_READS_PER_S = {"live_hot": 2000, "live_miss": 400, "live_churn": 400}


def sizing(seconds: float, smoke: bool = False) -> Sizing:
    if smoke:
        return Sizing(
            window_s=seconds, sim_horizon=20.0 * seconds, sim_warmup=5.0, sim_users=500,
            hot_pool=16, hot_warmup=100, miss_pool=4000, miss_warmup=50,
            rss_after={name: int(rate * seconds / 4) for name, rate in _RSS_READS_PER_S.items()},
        )
    return Sizing(
        window_s=seconds, sim_horizon=SIM_S_PER_SECOND * seconds, sim_warmup=50.0,
        sim_users=5000, hot_pool=64, hot_warmup=2000, miss_pool=60000, miss_warmup=500,
        rss_after={name: int(rate * seconds) for name, rate in _RSS_READS_PER_S.items()},
    )
