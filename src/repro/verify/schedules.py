"""Fault schedules: the fuzzer's serializable test inputs.

A :class:`Schedule` is a complete, self-contained description of one
fuzz cell — topology, policy, per-host clock drift, partition and crash
windows, and workload intensity.  Everything is plain JSON-able data,
so a failing schedule can be written to disk, attached to a bug report,
and replayed bit-for-bit with ``repro fuzz --schedule file.json``.

:func:`generate_schedule` derives cell ``i`` of master seed ``S``
deterministically via :func:`repro.sim.rng.derive_seed` (the stream
``fuzz[i]``), so a cell's schedule is identical no matter which worker
runs it or in what order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..core.cellspec import CellSpec
from ..sim.rng import derive_seed

__all__ = [
    "PartitionEvent",
    "CrashEvent",
    "ClockDriftSpec",
    "WorkloadSpec",
    "Schedule",
    "generate_schedule",
    "SCHEDULE_FORMAT",
]

#: Schema tag written into serialized schedules (bump on layout change).
SCHEDULE_FORMAT = 1

#: The keys every serialized schedule must carry, with their JSON types.
_REQUIRED = {
    "cell": int, "seed": int, "n_managers": int, "n_hosts": int,
    "horizon": (int, float), "drain": (int, float), "drift": dict, "workload": dict,
}


@dataclass(frozen=True)
class PartitionEvent:
    """One partition window: ``groups`` imposed at ``start``, healed at
    ``end``.  Addresses absent from every group share an implicit
    component (``ScriptedConnectivity`` semantics)."""

    start: float
    end: float
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        # Checked here, not in ``ScriptedConnectivity.partition``: a
        # replay imposes the groups from inside a sim process, where an
        # exception would be swallowed and the later group would win.
        seen = set()
        for group in self.groups:
            for address in group:
                if address in seen:
                    raise ValueError(f"address {address!r} is listed twice in the groups")
                seen.add(address)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "groups": [list(group) for group in self.groups],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PartitionEvent":
        return cls(
            start=data["start"],
            end=data["end"],
            groups=tuple(tuple(group) for group in data["groups"]),
        )


@dataclass(frozen=True)
class CrashEvent:
    """One crash/recovery window for a single node."""

    node: str
    at: float
    recover_at: float

    def to_dict(self) -> Dict[str, Any]:
        return {"node": self.node, "at": self.at, "recover_at": self.recover_at}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashEvent":
        return cls(
            node=data["node"], at=data["at"], recover_at=data["recover_at"]
        )


@dataclass(frozen=True)
class ClockDriftSpec:
    """Explicit per-host clock rates/offsets (index-aligned with hosts).

    Rates live in ``[1/bound, 1]`` — the paper's admissible range for
    slowness bound ``b`` — and are stored explicitly rather than as a
    seed so shrinking can halve drift without re-deriving anything.
    """

    bound: float
    rates: Tuple[float, ...] = ()
    offsets: Tuple[float, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bound": self.bound,
            "rates": list(self.rates),
            "offsets": list(self.offsets),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClockDriftSpec":
        return cls(
            bound=data["bound"],
            rates=tuple(data["rates"]),
            offsets=tuple(data["offsets"]),
        )

    def halved(self) -> "ClockDriftSpec":
        """Move every rate halfway back to 1.0 (the shrinker's step)."""
        return ClockDriftSpec(
            bound=self.bound,
            rates=tuple((rate + 1.0) / 2.0 for rate in self.rates),
            offsets=self.offsets,
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """Traffic shape for one cell."""

    n_users: int
    granted_fraction: float
    access_rate: float
    update_rate: float
    zipf_s: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_users": self.n_users,
            "granted_fraction": self.granted_fraction,
            "access_rate": self.access_rate,
            "update_rate": self.update_rate,
            "zipf_s": self.zipf_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        return cls(**data)


@dataclass(frozen=True)
class Schedule:
    """One complete fuzz-cell input.

    ``policy`` holds plain keyword arguments for
    :class:`~repro.core.policy.AccessPolicy` (only JSON-able fields are
    ever generated).  ``seed`` feeds the in-simulation randomness
    (latency, workload sampling); the fault windows below are explicit
    so the shrinker can edit them structurally.
    """

    cell: int
    seed: int
    n_managers: int
    n_hosts: int
    horizon: float
    drain: float
    policy: Dict[str, Any] = field(default_factory=dict)
    partitions: Tuple[PartitionEvent, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    drift: ClockDriftSpec = field(default_factory=lambda: ClockDriftSpec(1.0))
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(8, 0.75, 0.5, 0.05)
    )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SCHEDULE_FORMAT,
            "cell": self.cell,
            "seed": self.seed,
            "n_managers": self.n_managers,
            "n_hosts": self.n_hosts,
            "horizon": self.horizon,
            "drain": self.drain,
            "policy": dict(self.policy),
            "partitions": [event.to_dict() for event in self.partitions],
            "crashes": [event.to_dict() for event in self.crashes],
            "drift": self.drift.to_dict(),
            "workload": self.workload.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Schedule":
        """Outside input: ValueError naming the first missing or mistyped key."""
        if not isinstance(data, dict):
            raise ValueError(f"a schedule is a JSON object, not a {type(data).__name__}")
        version = data.get("format", SCHEDULE_FORMAT)
        if version != SCHEDULE_FORMAT:
            raise ValueError(
                f"unsupported schedule format {version} "
                f"(this build reads format {SCHEDULE_FORMAT})"
            )
        for key, kind in _REQUIRED.items():
            if not isinstance(data.get(key), kind):
                expected = getattr(kind, "__name__", "a number")
                raise ValueError(f"schedule key {key!r} is missing or not {expected}")
        try:
            return cls(
                cell=data["cell"],
                seed=data["seed"],
                n_managers=data["n_managers"],
                n_hosts=data["n_hosts"],
                horizon=data["horizon"],
                drain=data["drain"],
                policy=dict(data.get("policy", {})),
                partitions=tuple(
                    PartitionEvent.from_dict(event)
                    for event in data.get("partitions", [])
                ),
                crashes=tuple(
                    CrashEvent.from_dict(event) for event in data.get("crashes", [])
                ),
                drift=ClockDriftSpec.from_dict(data["drift"]),
                workload=WorkloadSpec.from_dict(data["workload"]),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed schedule entry: {exc!r}") from exc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- shrinking support --------------------------------------------------
    def replace(self, **changes: Any) -> "Schedule":
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def fault_count(self) -> int:
        return len(self.partitions) + len(self.crashes)

    def describe(self) -> str:
        strategy = "freeze" if self.policy.get("use_freeze") else "quorum"
        return (
            f"cell {self.cell}: M={self.n_managers} hosts={self.n_hosts} "
            f"{strategy} Te={self.policy.get('expiry_bound')} "
            f"horizon={self.horizon:.0f}s "
            f"partitions={len(self.partitions)} crashes={len(self.crashes)}"
        )


def _random_split(rng: random.Random, addresses: List[str]) -> Tuple[Tuple[str, ...], ...]:
    """Split the address set into two non-empty groups."""
    shuffled = list(addresses)
    rng.shuffle(shuffled)
    cut = rng.randint(1, len(shuffled) - 1)
    return (tuple(shuffled[:cut]), tuple(shuffled[cut:]))


def generate_schedule(master_seed: int, cell: int) -> Schedule:
    """Derive the schedule for fuzz cell ``cell`` of ``master_seed``.

    Pure function of its arguments (SHA-256 seed derivation plus a
    private ``random.Random``), so every worker and every replay agrees
    on what cell ``i`` contains.
    """
    seed = derive_seed(master_seed, f"fuzz[{cell}]")
    rng = random.Random(seed)

    n_managers = rng.choice([3, 4, 5])
    n_hosts = rng.randint(2, 4)
    use_freeze = rng.random() < 0.3
    expiry_bound = rng.choice([40.0, 60.0, 90.0])
    clock_bound = rng.choice([1.02, 1.05, 1.1])
    policy: Dict[str, Any] = {
        "check_quorum": rng.randint(1, n_managers),
        "expiry_bound": expiry_bound,
        "clock_bound": clock_bound,
        "query_timeout": rng.choice([2.0, 3.0]),
        "max_attempts": rng.choice([2, 3]),
        "update_retry_interval": 5.0,
        "revoke_retry_interval": 5.0,
        "ping_interval": 5.0,
        "use_freeze": use_freeze,
    }
    if use_freeze:
        policy["inaccessibility_period"] = round(
            expiry_bound * rng.uniform(0.15, 0.4), 3
        )

    horizon = round(rng.uniform(3.5, 5.5) * expiry_bound, 1)
    # Long enough after the last heal for dissemination retries, revoke
    # notifications, and every stale cache entry's te to run out.
    drain = round(expiry_bound * 1.25 + 40.0, 1)

    (managers,), hosts = CellSpec.names(n_managers, n_hosts)
    addresses = [*managers, *hosts]

    partitions: List[PartitionEvent] = []
    cursor = horizon * 0.1
    for _ in range(rng.randint(0, 3)):
        start = cursor + rng.uniform(0.0, horizon * 0.2)
        duration = rng.uniform(5.0, expiry_bound * 1.2)
        end = min(start + duration, horizon * 0.95)
        if end - start < 1.0 or start >= horizon * 0.9:
            break
        partitions.append(
            PartitionEvent(
                start=round(start, 3),
                end=round(end, 3),
                groups=_random_split(rng, addresses),
            )
        )
        cursor = end + rng.uniform(2.0, 15.0)

    # Crash/recovery windows target hosts only: manager crash recovery
    # (resync) has its own dedicated tests, and keeping managers up
    # keeps the convergence oracle's end-state unambiguous.
    crashes: List[CrashEvent] = []
    for _ in range(rng.randint(0, 2)):
        if n_hosts == 0:
            break
        at = rng.uniform(horizon * 0.1, horizon * 0.7)
        recover_at = min(at + rng.uniform(5.0, expiry_bound), horizon * 0.9)
        if recover_at - at < 1.0:
            continue
        crashes.append(
            CrashEvent(
                node=hosts[rng.randrange(n_hosts)],
                at=round(at, 3),
                recover_at=round(recover_at, 3),
            )
        )

    rates = tuple(
        rng.uniform(1.0 / clock_bound, 1.0) for _ in range(n_hosts)
    )
    offsets = tuple(rng.uniform(0.0, 1000.0) for _ in range(n_hosts))

    workload = WorkloadSpec(
        n_users=rng.randint(4, 12),
        granted_fraction=rng.uniform(0.5, 0.9),
        access_rate=rng.uniform(0.3, 1.0),
        update_rate=rng.uniform(0.02, 0.1),
        zipf_s=rng.choice([0.0, 1.0]),
    )

    return Schedule(
        cell=cell,
        seed=seed,
        n_managers=n_managers,
        n_hosts=n_hosts,
        horizon=horizon,
        drain=drain,
        policy=policy,
        partitions=tuple(partitions),
        crashes=tuple(crashes),
        drift=ClockDriftSpec(bound=clock_bound, rates=rates, offsets=offsets),
        workload=workload,
    )
