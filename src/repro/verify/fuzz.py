"""Parallel fault-schedule fuzzing with shrinking.

Each fuzz *cell* builds a complete simulated deployment from a
:class:`~repro.verify.schedules.Schedule`, attaches the invariant
oracles in collect mode, drives partitions / host crashes / drifting
clocks / access + update workloads against it, heals everything, drains
long past ``Te``, and finally runs the end-state convergence checks.
Cells are pure functions of their schedule, so they fan out over the
deterministic process pool (:func:`repro.runtime.run_parallel`)
and replay bit-for-bit from a serialized schedule.

On failure the harness *shrinks*: it greedily drops fault events,
halves fault windows, and pulls clock drift back toward 1.0 while the
same invariant keeps firing, then reports the minimal reproducing
schedule — the JSON you attach to the bug report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.policy import AccessPolicy
from ..core.system import AccessControlSystem
from ..runtime import run_parallel
from ..sim.clock import LocalClock
from ..sim.failures import schedule_crash, schedule_recovery
from ..sim.partitions import ScriptedConnectivity
from ..sim.rng import derive_seed
from ..sim.trace import TraceKind
from ..workloads.generators import (
    AccessWorkload,
    AuthorizationOracle,
    UpdateWorkload,
)
from ..workloads.population import UserPopulation
from .schedules import Schedule, generate_schedule

__all__ = [
    "CRASH",
    "FuzzResult",
    "FuzzFailure",
    "FuzzReport",
    "run_cell",
    "run_cell_trace",
    "run_fuzz",
    "shrink_schedule",
    "PROTOCOL_TRACE_KINDS",
]

#: The application name every fuzz cell uses.
APPLICATION = "fuzz"

#: The invariant name a cell reports when a process crashed it.
CRASH = "process_crash"

#: Trace-count keys copied into each cell's stats.
_STAT_KINDS = (
    "access_allowed",
    "access_denied",
    "access_default_allowed",
    "cache_hit",
    "cache_stored",
    "update_issued",
    "update_quorum_reached",
    "update_fully_propagated",
    "manager_frozen",
    "partition_started",
    "host_crashed",
)


@dataclass(frozen=True)
class FuzzResult:
    """Outcome of one cell: pass/fail plus structured violations.

    ``violations`` holds :meth:`InvariantViolation.as_dict` renderings
    (plain data — results cross process boundaries).
    """

    cell: int
    ok: bool
    violations: Tuple[Dict[str, Any], ...] = ()
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FuzzFailure:
    """A failing cell together with its shrunk reproduction."""

    cell: int
    schedule: Schedule
    minimal: Schedule
    shrink_steps: int
    violations: Tuple[Dict[str, Any], ...]

    def describe(self) -> str:
        first = self.violations[0]
        return (
            f"cell {self.cell} FAILED [{first['invariant']}] "
            f"t={first['time']:.3f}: {first['message']}\n"
            f"  original: {self.schedule.fault_count()} fault events; "
            f"minimal: {self.minimal.fault_count()} "
            f"({self.shrink_steps} shrink steps)"
        )


@dataclass(frozen=True)
class FuzzReport:
    """Everything one ``repro fuzz`` invocation produced."""

    master_seed: int
    results: Tuple[FuzzResult, ...]
    failures: Tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.results)} cells, seed {self.master_seed}: "
            f"{len(self.results) - len(self.failures)} passed, "
            f"{len(self.failures)} failed"
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        return "\n".join(lines)


def build_system(
    schedule: Schedule,
) -> Tuple[AccessControlSystem, ScriptedConnectivity]:
    """Construct the deployment a schedule describes (nothing driven yet)."""
    policy = AccessPolicy(**schedule.policy)
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=schedule.n_managers,
        n_hosts=schedule.n_hosts,
        applications=(APPLICATION,),
        policy=policy,
        connectivity=connectivity,
        seed=schedule.seed,
        clock_drift=False,
        check_invariants=False,
    )
    # Clocks come from the schedule, not the system's own factory, so
    # the shrinker can halve drift without touching anything else.
    for index, host in enumerate(system.hosts):
        if index < len(schedule.drift.rates):
            host.clock = LocalClock(
                system.env,
                rate=schedule.drift.rates[index],
                offset=schedule.drift.offsets[index],
            )
    return system, connectivity


def _drive_partition(system, connectivity, event):
    def _proc():
        yield system.env.timeout(event.start - system.env.now)
        connectivity.partition([list(group) for group in event.groups])
        yield system.env.timeout(event.end - system.env.now)
        connectivity.heal()

    system.env.process(_proc(), name=f"fuzz-partition@{event.start}")


#: Protocol-level trace kinds (network ``msg_*`` records excluded):
#: the vocabulary golden-trace captures subscribe to.
PROTOCOL_TRACE_KINDS: Tuple[str, ...] = tuple(
    value
    for name, value in sorted(vars(TraceKind).items())
    if name.isupper() and not value.startswith("msg_")
)


def _jsonable(value: Any) -> Any:
    """Coerce one trace-data value to plain JSON-able data."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def run_cell_trace(
    schedule: Schedule,
    kinds: Sequence[str] = PROTOCOL_TRACE_KINDS,
) -> Tuple[FuzzResult, List[Dict[str, Any]]]:
    """Execute one cell while capturing its protocol trace.

    Returns ``(result, records)`` where each record is a JSON-able
    ``{"time", "kind", "source", "data"}`` dict, in publication order.
    Subscribing consumes no randomness, so the result is identical to
    :func:`run_cell` on the same schedule — this is the recording side
    of the golden-trace equivalence test.
    """
    records: List[Dict[str, Any]] = []

    def capture(record) -> None:
        records.append(
            {
                "time": record.time,
                "kind": record.kind,
                "source": record.source,
                "data": {
                    key: _jsonable(value)
                    for key, value in sorted(record.data.items())
                },
            }
        )

    result = run_cell(schedule, _trace=(tuple(kinds), capture))
    return result, records


def run_cell(
    schedule: Schedule,
    _trace: Optional[Tuple[Tuple[str, ...], Any]] = None,
) -> FuzzResult:
    """Execute one fuzz cell; pure function of the schedule."""
    system, connectivity = build_system(schedule)
    if _trace is not None:
        system.tracer.subscribe(*_trace)
    checker = system.attach_invariant_checker(raise_on_violation=False)

    spec = schedule.workload
    population = UserPopulation(spec.n_users, zipf_s=spec.zipf_s)
    oracle = AuthorizationOracle(system.policy.expiry_bound)
    grant_rng = random.Random(derive_seed(schedule.seed, "fuzz-grants"))
    granted = [user for user in population if grant_rng.random() < spec.granted_fraction]
    system.seed_grants(APPLICATION, granted)
    for user in granted:
        oracle.grant(APPLICATION, user)

    access = AccessWorkload(
        system,
        APPLICATION,
        population,
        oracle,
        rate=spec.access_rate,
    )
    updates = UpdateWorkload(
        system,
        APPLICATION,
        population,
        oracle,
        rate=spec.update_rate,
        target_fraction=spec.granted_fraction,
    )

    node_by_address = {node.address: node for node in system.hosts}
    node_by_address.update(
        {node.address: node for node in system.managers}
    )
    for event in schedule.partitions:
        _drive_partition(system, connectivity, event)
    for event in schedule.crashes:
        node = node_by_address.get(event.node)
        if node is None:
            continue
        schedule_crash(system.env, node, event.at, system.tracer)
        schedule_recovery(system.env, node, event.recover_at, system.tracer)

    try:
        system.run(until=schedule.horizon)
        # Quiesce: stop the traffic generators (in-flight attempts finish
        # on their own), make sure every fault window is closed, and
        # drain long enough for dissemination retries and every cached
        # te to run out.
        for driver in (access._process, updates._process):
            if driver.is_alive:
                driver.interrupt()
        connectivity.heal()
        system.run(until=schedule.horizon + schedule.drain)
        checker.finalize()
        violations = tuple(v.as_dict() for v in checker.violations)
    except Exception as exc:
        # A process died and nothing observed it, so the engine raised
        # its exception: the cell fails like a broken invariant, and the
        # shrinker minimises the schedule that crashes it.
        violations = ({"invariant": CRASH, "time": system.env.now, "details": {},
                       "message": f"{type(exc).__name__}: {exc}", "trace": []},)

    counts = system.tracer.counts()
    stats = {kind: counts.get(kind, 0) for kind in _STAT_KINDS}
    stats["observations"] = access.decisions
    stats["adds"] = updates.adds
    stats["revokes"] = updates.revokes
    return FuzzResult(
        cell=schedule.cell,
        ok=not violations,
        violations=violations,
        stats=stats,
    )


# -- shrinking ---------------------------------------------------------------

def _shrink_candidates(schedule: Schedule) -> Iterator[Schedule]:
    """Structurally smaller variants, most aggressive first."""
    for index in range(len(schedule.partitions)):
        yield schedule.replace(
            partitions=schedule.partitions[:index]
            + schedule.partitions[index + 1:]
        )
    for index in range(len(schedule.crashes)):
        yield schedule.replace(
            crashes=schedule.crashes[:index] + schedule.crashes[index + 1:]
        )
    for index, event in enumerate(schedule.partitions):
        duration = event.end - event.start
        if duration >= 2.0:
            shortened = event.__class__(
                start=event.start,
                end=event.start + duration / 2.0,
                groups=event.groups,
            )
            yield schedule.replace(
                partitions=schedule.partitions[:index]
                + (shortened,)
                + schedule.partitions[index + 1:]
            )
    for index, event in enumerate(schedule.crashes):
        duration = event.recover_at - event.at
        if duration >= 2.0:
            shortened = event.__class__(
                node=event.node,
                at=event.at,
                recover_at=event.at + duration / 2.0,
            )
            yield schedule.replace(
                crashes=schedule.crashes[:index]
                + (shortened,)
                + schedule.crashes[index + 1:]
            )
    if any(rate < 0.999 for rate in schedule.drift.rates):
        yield schedule.replace(drift=schedule.drift.halved())


def shrink_schedule(
    schedule: Schedule,
    invariant: str,
    max_attempts: int = 64,
) -> Tuple[Schedule, int]:
    """Greedily minimise ``schedule`` while ``invariant`` still fires.

    Classic delta-debugging loop: try each structural reduction, keep
    the first that still reproduces a violation of the same invariant
    kind, repeat until no reduction survives (or the attempt budget is
    spent).  Returns ``(minimal_schedule, accepted_steps)``.
    """

    def still_fails(candidate: Schedule) -> bool:
        result = run_cell(candidate)
        return any(v["invariant"] == invariant for v in result.violations)

    current = schedule
    steps = 0
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                steps += 1
                progress = True
                break
            if attempts >= max_attempts:
                break
    return current, steps


# -- the fan-out entry point -------------------------------------------------

def run_fuzz(
    master_seed: int,
    cells: int,
    jobs: Optional[int] = 1,
    shrink: bool = True,
    schedules: Optional[Sequence[Schedule]] = None,
) -> FuzzReport:
    """Fuzz ``cells`` schedules derived from ``master_seed``.

    Cells fan out over ``jobs`` worker processes; results are identical
    for every ``jobs`` value.  Pass explicit ``schedules`` to replay
    saved cells instead of deriving fresh ones.  Failing cells are
    shrunk (sequentially, in the parent — shrinking is a search, not a
    sweep) unless ``shrink=False``.
    """
    if schedules is None:
        if cells < 1:
            raise ValueError(f"cells must be positive, got {cells}")
        schedules = [generate_schedule(master_seed, i) for i in range(cells)]
    results: List[FuzzResult] = run_parallel(
        run_cell, [(schedule,) for schedule in schedules], jobs=jobs
    )
    failures: List[FuzzFailure] = []
    for schedule, result in zip(schedules, results):
        if result.ok:
            continue
        first_invariant = result.violations[0]["invariant"]
        if shrink:
            minimal, steps = shrink_schedule(schedule, first_invariant)
            final = run_cell(minimal)
            violations = final.violations or result.violations
        else:
            minimal, steps = schedule, 0
            violations = result.violations
        failures.append(
            FuzzFailure(
                cell=schedule.cell,
                schedule=schedule,
                minimal=minimal,
                shrink_steps=steps,
                violations=violations,
            )
        )
    return FuzzReport(
        master_seed=master_seed,
        results=tuple(results),
        failures=tuple(failures),
    )
