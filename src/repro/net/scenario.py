"""Barrier-sequenced differential scenarios: one program, two backends.

A :class:`Scenario` is a deterministic list of protocol operations —
access checks, grants/revocations, partitions, crashes — derived from a
fuzz :class:`~repro.verify.schedules.Schedule`.  The *same* scenario
runs through

* :func:`run_scenario_sim` — an :class:`~repro.core.AccessControlSystem`
  on the in-sim :class:`~repro.sim.network.Network`, and
* :func:`run_scenario_live` — a :class:`~repro.net.cell.LiveCell` over
  localhost TCP,

each producing a :class:`ScenarioOutcome`.  The differential suite
asserts the outcomes equal.

Timing-tolerant, decision-exact
-------------------------------
The two backends cannot agree on wall-clock microtiming, so scenarios
are *barrier-sequenced*: every step settles (all nodes past a sim-time
barrier, all updates fully propagated) before the next step observes
anything.  Within that discipline the protocol is deterministic — the
same checks hit the same caches, the same quorums see the same
versions, the same revocations kill the same entries — which is
exactly the equivalence the paper's deployment story needs.

One interpreter, :func:`_interpret`, drives both legs through the same
methods of a :class:`~repro.net.cell.LiveCell` or a :class:`_SimCell`;
the sim leg runs it inside one sim process, event for event.

Version canonicalisation: version counters are hybrid logical clocks
embedding physical milliseconds, so raw counters differ across
backends.  Outcomes instead rank the distinct versions in each run
(sorted by the protocol's own ``(counter, origin)`` order) and compare
``(granted, rank, origin)`` — identical iff the backends applied the
same operations in the same dominance order.
"""

from __future__ import annotations

import random
import types
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Coroutine, Dict, List, Optional, Tuple

from ..core.cellspec import CellSpec
from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..sim.network import FixedLatency
from ..sim.partitions import ScriptedConnectivity
from ..verify.schedules import Schedule
from .cell import LiveCell

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "derive_scenario",
    "run_scenario_sim",
    "run_scenario_live",
    "APPLICATION",
]

#: Every scenario exercises a single application, like the fuzz cells.
APPLICATION = "app"

#: Users a scenario may touch (ACL snapshots cover exactly these).
_USERS = ("alice", "bob", "carol", "dave")

#: Sim latency for the sim leg — fixed, so scenario timing margins hold.
_SIM_LATENCY = 0.05


@dataclass(frozen=True)
class Scenario:
    """A deterministic differential program.

    ``steps`` is a sequence of tuples; the first element names the
    operation (``check``/``grant``/``revoke``/``settle``/``partition``/
    ``heal``/``crash``/``recover``), interpreted by :func:`_interpret`
    on both backends.
    """

    name: str
    n_managers: int
    n_hosts: int
    policy: Dict[str, Any]
    seed_users: Tuple[str, ...]
    steps: Tuple[Tuple[Any, ...], ...]
    seed: int = 0


@dataclass
class ScenarioOutcome:
    """What a backend observed: decisions plus canonical final state."""

    #: ``(step label, allowed, reason)`` per check step, in order.
    decisions: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: manager -> "user/right" -> (granted, version rank, version origin)
    acls: Dict[str, Dict[str, Tuple[bool, int, str]]] = field(default_factory=dict)

    def canonical(self) -> Tuple[Any, ...]:
        return (
            tuple(self.decisions),
            tuple(
                (manager, tuple(sorted(entries.items())))
                for manager, entries in sorted(self.acls.items())
            ),
        )


def derive_scenario(schedule: Schedule, name: Optional[str] = None) -> Scenario:
    """A differential program exercising ``schedule``'s cell shape.

    The schedule contributes topology and policy (its partition/crash
    *windows* are replaced with barrier-sequenced equivalents — raw
    wall-clock fault windows are exactly the nondeterminism a
    differential test must not depend on).  Everything else is drawn
    from a private RNG seeded by the schedule, so a 10-schedule sample
    yields 10 distinct programs.
    """
    rng = random.Random(schedule.seed ^ 0x5CE9A810)
    n_managers = schedule.n_managers
    n_hosts = max(2, schedule.n_hosts)
    (manager_addrs,), host_addrs = CellSpec.names(n_managers, n_hosts)

    policy = dict(schedule.policy)
    # The differential discipline needs bounded checks (exhaustion must
    # terminate) and the deny-on-exhaustion default both backends share.
    policy.setdefault("max_attempts", 3)
    policy.pop("clock_bound", None)  # both legs run rate-1 clocks

    issuer = rng.choice(manager_addrs)
    checker = rng.randrange(n_hosts)
    other = rng.randrange(n_hosts)
    use_freeze = bool(policy.get("use_freeze"))

    steps: List[Tuple[Any, ...]] = [
        # Seeded grant: miss -> verify, then the Figure 3 cache fast path.
        ("check", checker, "alice", "seed-verified"),
        ("check", checker, "alice", "seed-cached"),
        # Full protocol grant, fully propagated, visible from any host.
        ("grant", issuer, "bob"),
        ("settle", 2.0),
        ("check", other, "bob", "grant-verified"),
        # Revocation: tombstone wins the version comparison everywhere.
        ("revoke", issuer, "bob"),
        ("settle", 3.0),
        ("check", other, "bob", "revoked-denied"),
        # Partition the checking host away from every manager: cached
        # rights survive (Figure 3), uncached checks exhaust R and deny.
        ("partition", host_addrs[checker], manager_addrs),
        ("settle", 0.5),
        ("check", checker, "alice", "partitioned-cached"),
        ("check", checker, "carol", "partitioned-exhausted"),
        # heal() revives explicitly isolated links on both backends.
        ("heal",),
        ("settle", 1.0),
    ]

    if use_freeze:
        t_i = float(policy.get("inaccessibility_period", 10.0))
        ping = float(policy.get("ping_interval", 5.0))
        steps += [
            # Isolate one manager from its peers: the freeze strategy
            # freezes *every* manager (each has an unreachable peer), so
            # the cell goes silent and uncached checks exhaust.
            ("partition", manager_addrs[0], manager_addrs[1:]),
            ("settle", t_i + ping + 2.0),
            ("check", other, "dave", "frozen-exhausted"),
            ("heal",),
            ("settle", ping + 2.0),
            ("grant", issuer, "dave"),
            ("settle", 2.0),
            ("check", other, "dave", "thawed-verified"),
        ]

    steps += [
        # Crash loses the volatile cache (Section 3.4): the next check
        # re-verifies instead of hitting the cache.
        ("crash", host_addrs[checker]),
        ("settle", 0.5),
        ("recover", host_addrs[checker]),
        ("settle", 0.5),
        ("check", checker, "alice", "post-crash-verified"),
    ]

    return Scenario(
        name=name or f"schedule-{schedule.cell}-{schedule.seed}",
        n_managers=n_managers,
        n_hosts=n_hosts,
        policy=policy,
        seed_users=("alice",),
        steps=tuple(steps),
        seed=schedule.seed,
    )


def _snapshot_acl(manager: Any) -> Dict[str, Tuple[bool, Tuple[int, str]]]:
    """Raw (granted, version) state for the scenario users on one manager."""
    state: Dict[str, Tuple[bool, Tuple[int, str]]] = {}
    acl = manager.acl(APPLICATION)
    for user in _USERS:
        for right in (Right.USE, Right.MANAGE):
            entry = acl.entry(user, right)
            if entry is not None:
                state[f"{user}/{right.value}"] = (
                    entry.granted,
                    (entry.version.counter, entry.version.origin),
                )
    return state


def _canonicalise(
    raw: Dict[str, Dict[str, Tuple[bool, Tuple[int, str]]]],
) -> Dict[str, Dict[str, Tuple[bool, int, str]]]:
    """Replace concrete version counters with their rank in this run."""
    versions = sorted(
        {version for entries in raw.values() for (_, version) in entries.values()}
    )
    rank = {version: index for index, version in enumerate(versions)}
    return {
        manager: {
            key: (granted, rank[version], version[1])
            for key, (granted, version) in entries.items()
        }
        for manager, entries in raw.items()
    }


def _cell_shape(scenario: Scenario) -> Dict[str, Any]:
    """The constructor arguments both legs' cells share."""
    return dict(
        n_managers=scenario.n_managers, n_hosts=scenario.n_hosts,
        applications=(APPLICATION,), policy=AccessPolicy(**scenario.policy),
    )


async def _interpret(cell: Any, scenario: Scenario) -> List[Tuple[str, bool, str]]:
    """Run ``scenario``'s steps on ``cell``; the ``check`` decisions, in order."""
    decisions = []
    for op, *args in scenario.steps:
        if op == "check":
            index, user, label = args
            decision = await cell.check(index, APPLICATION, user)
            decisions.append((label, decision.allowed, decision.reason))
        elif op in ("grant", "revoke"):
            await cell.issue(args[0], APPLICATION, args[1], grant=op == "grant")
        elif op in ("settle", "crash", "recover"):
            await getattr(cell, op)(*args)
        else:  # partition, heal
            getattr(cell, op)(*args)
    return decisions


# -- the sim leg ---------------------------------------------------------------
def _drive(coroutine: Coroutine[Any, Any, Any]) -> Any:
    """A sim process running ``coroutine``: each event it awaits is
    yielded to the environment and its value sent back."""
    value = None
    while True:
        try:
            event = coroutine.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield event


class _SimCell:
    """The :class:`~repro.net.cell.LiveCell` methods the interpreter
    calls, on an :class:`~repro.core.AccessControlSystem`; awaited
    inside :func:`_drive`, each yields its events to the environment."""

    def __init__(self, system: Any, connectivity: ScriptedConnectivity) -> None:
        self.system = system
        self.partition, self.heal = connectivity.isolate, connectivity.heal
        self.nodes = {node.address: node for node in [*system.managers, *system.hosts]}

    @types.coroutine
    def check(self, index: int, application: str, user: str) -> Any:
        return (yield from self.system.hosts[index].check_access(application, user))

    @types.coroutine
    def issue(self, address: str, application: str, user: str, grant: bool) -> Any:
        manager = self.nodes[address]
        yield (manager.add if grant else manager.revoke)(application, user).complete

    @types.coroutine
    def settle(self, sim_delta: float) -> Any:
        yield self.system.env.timeout(sim_delta)

    async def crash(self, address: str) -> None:
        self.nodes[address].crash()

    async def recover(self, address: str) -> None:
        self.nodes[address].recover()


def run_scenario_sim(scenario: Scenario) -> ScenarioOutcome:
    """Execute ``scenario`` on the in-simulation backend."""
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        **_cell_shape(scenario),
        connectivity=connectivity,
        latency=FixedLatency(_SIM_LATENCY),
        clock_drift=False,
        seed=scenario.seed,
        check_invariants=False,
    )
    system.seed_grants(APPLICATION, scenario.seed_users)
    # Mirror the live cell's bootstrap: its admin holds MANAGE everywhere.
    system.seed_grant(APPLICATION, "admin", Right.MANAGE)

    driver = _drive(_interpret(_SimCell(system, connectivity), scenario))
    process = system.env.process(driver, name=f"scenario:{scenario.name}")
    # Background maintenance (pings, cache sweeps) never drains the event
    # queue, so step until the driver itself completes.
    while not process.triggered:
        system.env.step()
    if not process.ok:
        raise process.value
    return ScenarioOutcome(
        process.value,
        _canonicalise({m.address: _snapshot_acl(m) for m in system.managers}),
    )


# -- the live leg --------------------------------------------------------------
async def run_scenario_live(scenario: Scenario, time_scale: float = 40.0) -> ScenarioOutcome:
    """Execute ``scenario`` on the localhost TCP backend."""
    cell = LiveCell(**_cell_shape(scenario), time_scale=time_scale)
    for user in scenario.seed_users:
        cell.seed_grant(APPLICATION, user)
    async with cell:
        decisions = await _interpret(cell, scenario)
        raw = {
            addr: await cell.call(addr, partial(_snapshot_acl, cell.node(addr)))
            for addr in cell.manager_addrs
        }
    return ScenarioOutcome(decisions, _canonicalise(raw))
