"""Shared wiring for baseline systems.

Every baseline exposes the same duck-typed surface as
:class:`repro.core.AccessControlSystem` — ``env``, ``streams``,
``tracer``, ``hosts`` (with ``request_access``), ``managers`` (with
``add``/``revoke``), ``seed_grant``, ``run`` — so the same workloads
and metrics drive all of them and the comparison benches are
apples-to-apples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.rights import AclEntry, Right, Version
from ..sim.clock import ClockFactory
from ..sim.engine import Environment
from ..sim.network import LatencyModel, Network, ShiftedExponentialLatency
from ..sim.partitions import ConnectivityModel, FullConnectivity
from ..sim.rng import RngStreams
from ..sim.trace import Tracer

__all__ = ["BaselineSystem", "SEED_ORIGIN"]

#: Version origin for ``seed_grant`` entries: the empty string
#: sorts below every real manager id, so ties go to real operations.
SEED_ORIGIN = ""


class BaselineSystem:
    """Environment + network scaffolding shared by all baselines.

    Subclasses create their manager and host nodes in ``_build`` and
    append them to ``self.managers`` / ``self.hosts``.
    """

    def __init__(
        self,
        n_managers: int,
        n_hosts: int,
        applications: Sequence[str] = ("app",),
        connectivity: Optional[ConnectivityModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        keep_trace_log: bool = False,
        clock_b: float = 1.05,
        clock_drift: bool = True,
    ):
        if n_managers < 1:
            raise ValueError("need at least one manager")
        self.applications = tuple(applications)
        self.streams = RngStreams(seed)
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=keep_trace_log)
        self.network = Network(
            self.env,
            connectivity=connectivity or FullConnectivity(),
            latency=latency or ShiftedExponentialLatency(),
            tracer=self.tracer,
            rng=self.streams.stream("network"),
        )
        self.clock_factory = ClockFactory(
            self.env, b=clock_b, rng=self.streams.stream("clocks")
        )
        self.clock_drift = clock_drift
        self.manager_addrs: Tuple[str, ...] = tuple(
            f"m{i}" for i in range(n_managers)
        )
        self.managers: List = []
        self.hosts: List = []
        self._build(n_managers, n_hosts)

    def _build(self, n_managers: int, n_hosts: int) -> None:
        raise NotImplementedError

    def _make_clock(self):
        if self.clock_drift:
            return self.clock_factory.make()
        return self.clock_factory.perfect()

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def seed_grant(self, application: str, user: str,
                   right: Right = Right.USE) -> None:
        """Install a fully propagated grant before time zero."""
        entry = AclEntry(
            user=user, right=right, granted=True, version=Version(1, SEED_ORIGIN)
        )
        self._seed_entry(application, entry)

    def seed_grants(self, application: str, users, right: Right = Right.USE) -> None:
        for user in users:
            self.seed_grant(application, user, right)

    def _seed_entry(self, application: str, entry: AclEntry) -> None:
        raise NotImplementedError

    @property
    def n_managers(self) -> int:
        return len(self.managers)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)
