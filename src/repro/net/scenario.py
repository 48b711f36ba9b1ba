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

Version canonicalisation: version counters are hybrid logical clocks
embedding physical milliseconds, so raw counters differ across
backends.  Outcomes instead rank the distinct versions in each run
(sorted by the protocol's own ``(counter, origin)`` order) and compare
``(granted, rank, origin)`` — identical iff the backends applied the
same operations in the same dominance order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..sim.network import FixedLatency
from ..sim.partitions import ScriptedConnectivity
from ..verify.schedules import Schedule
from .cell import DEFAULT_SECRET, LiveCell
from .session import DEFAULT_LIFETIME

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
    ``heal``/``crash``/``recover``), interpreted identically by both
    executors.
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
    manager_addrs = [f"m{i}" for i in range(n_managers)]

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
        ("partition", f"h{checker}", tuple(manager_addrs)),
        ("settle", 0.5),
        ("check", checker, "alice", "partitioned-cached"),
        ("check", checker, "carol", "partitioned-exhausted"),
        # heal() revives explicitly isolated links on both backends (the
        # sim historically left them down, forcing a manual reconnect
        # workaround here).
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
            ("partition", "m0", tuple(a for a in manager_addrs if a != "m0")),
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
        ("crash", f"h{checker}"),
        ("settle", 0.5),
        ("recover", f"h{checker}"),
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


# -- the sim leg ---------------------------------------------------------------
def run_scenario_sim(scenario: Scenario) -> ScenarioOutcome:
    """Execute ``scenario`` on the in-simulation backend."""
    connectivity = ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=scenario.n_managers,
        n_hosts=scenario.n_hosts,
        applications=(APPLICATION,),
        policy=AccessPolicy(**scenario.policy),
        connectivity=connectivity,
        latency=FixedLatency(_SIM_LATENCY),
        clock_drift=False,
        seed=scenario.seed,
        check_invariants=False,
    )
    for user in scenario.seed_users:
        system.seed_grant(APPLICATION, user)
    # Mirror the live cell's bootstrap: its admin holds MANAGE everywhere.
    system.seed_grant(APPLICATION, "admin", Right.MANAGE)

    outcome = ScenarioOutcome()
    managers = {manager.address: manager for manager in system.managers}
    nodes = {**managers, **{host.address: host for host in system.hosts}}

    def driver():
        for step in scenario.steps:
            op = step[0]
            if op == "check":
                _, index, user, label = step
                decision = yield from system.hosts[index].check_access(
                    APPLICATION, user
                )
                outcome.decisions.append((label, decision.allowed, decision.reason))
            elif op == "grant":
                handle = managers[step[1]].add(APPLICATION, step[2])
                yield handle.complete
            elif op == "revoke":
                handle = managers[step[1]].revoke(APPLICATION, step[2])
                yield handle.complete
            elif op == "settle":
                yield system.env.timeout(step[1])
            elif op == "partition":
                connectivity.isolate(step[1], step[2])
            elif op == "reconnect":
                connectivity.reconnect(step[1], step[2])
            elif op == "heal":
                connectivity.heal()
            elif op == "crash":
                nodes[step[1]].crash()
            elif op == "recover":
                nodes[step[1]].recover()
            else:  # pragma: no cover - derive_scenario only emits the above
                raise ValueError(f"unknown scenario op {op!r}")

    process = system.env.process(driver(), name=f"scenario:{scenario.name}")
    # Background maintenance (pings, cache sweeps) never drains the event
    # queue, so step until the driver itself completes.
    while not process.triggered:
        system.env.step()
    if not process.ok:
        raise process.value

    outcome.acls = _canonicalise(
        {addr: _snapshot_acl(manager) for addr, manager in managers.items()}
    )
    return outcome


# -- the live leg --------------------------------------------------------------
async def run_scenario_live(
    scenario: Scenario,
    time_scale: float = 40.0,
    secret: bytes = DEFAULT_SECRET,
    lifetime: float = DEFAULT_LIFETIME,
) -> ScenarioOutcome:
    """Execute ``scenario`` on the localhost TCP backend."""
    cell = LiveCell(
        n_managers=scenario.n_managers,
        n_hosts=scenario.n_hosts,
        applications=(APPLICATION,),
        policy=AccessPolicy(**scenario.policy),
        secret=secret,
        time_scale=time_scale,
        lifetime=lifetime,
    )
    for user in scenario.seed_users:
        cell.seed_grant(APPLICATION, user)

    outcome = ScenarioOutcome()
    async with cell:
        for step in scenario.steps:
            op = step[0]
            if op == "check":
                _, index, user, label = step
                decision = await cell.check(index, APPLICATION, user)
                outcome.decisions.append((label, decision.allowed, decision.reason))
            elif op in ("grant", "revoke"):
                _, manager_addr, user = step
                manager = cell.node(manager_addr)
                issue = manager.add if op == "grant" else manager.revoke
                handle = await cell.call(
                    manager_addr, lambda: issue(APPLICATION, user)
                )
                await cell.runtime_of(manager_addr).when(handle.complete)
            elif op == "settle":
                await cell.settle(step[1])
            elif op == "partition":
                cell.partition(step[1], step[2])
            elif op == "reconnect":
                cell.connectivity.reconnect(step[1], step[2])
            elif op == "heal":
                cell.heal()
            elif op == "crash":
                await cell.crash(step[1])
            elif op == "recover":
                await cell.recover(step[1])
            else:  # pragma: no cover
                raise ValueError(f"unknown scenario op {op!r}")

        raw = {}
        for manager_addr in cell.manager_addrs:
            raw[manager_addr] = await cell.call(
                manager_addr,
                lambda m=cell.node(manager_addr): _snapshot_acl(m),
            )
    outcome.acls = _canonicalise(raw)
    return outcome
