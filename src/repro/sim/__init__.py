"""Discrete-event simulation substrate.

Everything the reproduction's protocol code runs on: the event loop
(:mod:`~repro.sim.engine`), drifting local clocks
(:mod:`~repro.sim.clock`), the unreliable WAN
(:mod:`~repro.sim.network`), partition models
(:mod:`~repro.sim.partitions`), host failure injection
(:mod:`~repro.sim.failures`), seeded randomness
(:mod:`~repro.sim.rng`) and structured tracing
(:mod:`~repro.sim.trace`).
"""

from .clock import ClockFactory, LocalClock, slowness_bound
from .engine import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .failures import WEEKS, CrashRecoveryInjector, schedule_crash, schedule_recovery
from .network import (
    FixedLatency,
    LatencyModel,
    Network,
    ShiftedExponentialLatency,
)
from .node import Address, Node
from .partitions import (
    ConnectivityModel,
    DutyCycleModel,
    FullConnectivity,
    PairEpochModel,
    SampledConnectivity,
    ScriptedConnectivity,
    pair_key,
)
from .rng import RngStreams, derive_seed
from .storage import StableStore
from .trace import TraceKind, TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Address",
    "ClockFactory",
    "Condition",
    "ConnectivityModel",
    "CrashRecoveryInjector",
    "DutyCycleModel",
    "Environment",
    "Event",
    "FixedLatency",
    "FullConnectivity",
    "Interrupt",
    "LatencyModel",
    "LocalClock",
    "Network",
    "Node",
    "PairEpochModel",
    "Process",
    "RngStreams",
    "SampledConnectivity",
    "ScriptedConnectivity",
    "ShiftedExponentialLatency",
    "StableStore",
    "SimulationError",
    "Timeout",
    "TraceKind",
    "TraceRecord",
    "Tracer",
    "WEEKS",
    "derive_seed",
    "pair_key",
    "schedule_crash",
    "schedule_recovery",
    "slowness_bound",
]
