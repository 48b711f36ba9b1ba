"""One-call construction of a complete simulated deployment.

:class:`AccessControlSystem` wires together everything a study needs:
an environment, a traced network with a chosen partition model, ``M``
managers, ``N`` application hosts with drifting clocks, and optionally
crash/recovery injectors.  It is the backbone of the examples, the
simulation experiments, and the integration tests.

Example
-------
>>> from repro.core import AccessControlSystem, AccessPolicy, Right
>>> system = AccessControlSystem(
...     n_managers=5, n_hosts=3, applications=("stocks",),
...     policy=AccessPolicy(check_quorum=3), seed=7)
>>> system.seed_grant("stocks", "alice")
>>> proc = system.hosts[0].request_access("stocks", "alice")
>>> system.run(until=60)
>>> proc.value.allowed
True
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..sim.clock import ClockFactory
from ..sim.engine import Environment
from ..sim.failures import CrashRecoveryInjector
from ..sim.network import FixedLatency, LatencyModel, Network, ShiftedExponentialLatency
from ..sim.partitions import ConnectivityModel, FullConnectivity
from ..sim.rng import RngStreams
from ..sim.trace import TraceKind, Tracer
from .acl import AclBatch
from .cellspec import CellSpec
from .ids import Interner
from .manager import AccessControlManager
from .policy import AccessPolicy
from .rights import Right
from .wrapper import ApplicationHost

__all__ = ["AccessControlSystem"]


class AccessControlSystem:
    """A fully wired simulated deployment of the paper's protocol.

    Parameters
    ----------
    n_managers:
        ``M`` — size of ``Managers(A)`` (shared by all applications).
    n_hosts:
        Number of application hosts (``Hosts(A)``).
    applications:
        Application names; every host serves all of them.
    policy:
        Default :class:`~repro.core.policy.AccessPolicy` for hosts and
        managers.
    connectivity / latency / loss_rate / duplicate_rate:
        Network behaviour, passed to
        :class:`~repro.sim.network.Network`; defaults to full
        connectivity with WAN-shaped latency and no loss.
    clock_drift:
        Give hosts drifting clocks within the policy's bound ``b``
        (managers run rate-1 clocks; only host expiry depends on drift).
    host_failures / manager_failures:
        Optional ``(mttf, mttr)`` pairs enabling crash/recovery
        injection for that node class.
    keep_trace_log:
        Retain every trace record in memory (tests, debugging).
    check_invariants:
        Attach a :class:`repro.verify.InvariantChecker` that raises the
        moment a protocol invariant breaks.  ``None`` (the default)
        defers to :func:`repro.verify.checking_enabled`
        (``REPRO_CHECK_INVARIANTS=1``, the CLI's ``--check-invariants``).
    shards:
        ``K`` — number of independent manager *groups*, each running its
        own dissemination instance; ``n_managers`` is the *per-group*
        size ``M``.  :meth:`~repro.core.cellspec.CellSpec.sized` names
        the addresses and routes applications to groups.
    interner:
        Shared :class:`~repro.core.ids.Interner` backing every node's
        hot state; fresh when omitted.  Mega-population runs pass
        ``population.interner()``, so names are stored only there.
    """

    def __init__(
        self,
        n_managers: int = 5,
        n_hosts: int = 10,
        applications: Sequence[str] = ("app",),
        policy: Optional[AccessPolicy] = None,
        connectivity: Optional[ConnectivityModel] = None,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        clock_drift: bool = True,
        host_failures: Optional[Tuple[float, float]] = None,
        manager_failures: Optional[Tuple[float, float]] = None,
        seed: int = 0,
        keep_trace_log: bool = False,
        check_invariants: Optional[bool] = None,
        shards: int = 1,
        interner: Optional[Interner] = None,
    ):
        self.spec = CellSpec.sized(n_managers, n_hosts, applications, policy, shards)
        self.policy = self.spec.policy
        self.interner = interner if interner is not None else Interner()
        self.streams = RngStreams(seed)
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=keep_trace_log)
        self.network = Network(
            self.env,
            connectivity=connectivity or FullConnectivity(),
            latency=latency or ShiftedExponentialLatency(),
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            tracer=self.tracer,
            rng=self.streams.stream("network"),
        )
        # Group by group, each manager registered as it is built (manage()
        # before register(): attach spawns the per-app dissemination
        # monitors), then the hosts, each drawing its clock in index order.
        self.manager_groups: List[List[AccessControlManager]] = [
            [self.network.register(self._new_manager(addr)) for addr in group]
            for group in self.spec.groups
        ]
        self.managers = [manager for group in self.manager_groups for manager in group]
        clocks = ClockFactory(
            self.env, b=self.policy.clock_bound, rng=self.streams.stream("clocks")
        )
        self.hosts: List[ApplicationHost] = [
            self.network.register(self.spec.host(
                addr,
                clock=clocks.make() if clock_drift else clocks.perfect(),
                interner=self.interner,
            ))
            for addr in self.spec.hosts
        ]

        self.host_injector = self._injector(self.hosts, host_failures, "host-failures")
        self.manager_injector = self._injector(
            self.managers, manager_failures, "manager-failures"
        )

        self.checker = None
        if check_invariants is None:
            from ..verify import checking_enabled

            check_invariants = checking_enabled()
        if check_invariants:
            self.attach_invariant_checker(raise_on_violation=True)

    def _new_manager(self, address: str) -> AccessControlManager:
        """One manager-group member; a subclass may build another
        manager class through the spec (the experiments' lying managers)."""
        return self.spec.manager(address, interner=self.interner)

    def _injector(self, nodes: List[Any], failures: Optional[Tuple[float, float]],
                  stream: str) -> Optional[CrashRecoveryInjector]:
        if failures is None:
            return None
        mttf, mttr = failures
        return CrashRecoveryInjector(
            self.env, nodes, mttf=mttf, mttr=mttr,
            rng=self.streams.stream(stream), tracer=self.tracer,
        )

    @classmethod
    def experiment_cell(
        cls, policy: AccessPolicy, one_way: float = 0.05, **params: Any
    ) -> "AccessControlSystem":
        """The deployment every simulated experiment cell runs on: a
        fixed ``one_way`` latency and perfect host clocks, so what a cell
        measures depends only on its policy, connectivity and seed."""
        return cls(policy=policy, latency=FixedLatency(one_way), clock_drift=False, **params)

    # -- invariant checking --------------------------------------------------------
    def attach_invariant_checker(self, raise_on_violation: bool = True):
        """Attach the online protocol-invariant oracles to this system.

        Returns the :class:`repro.verify.InvariantChecker`; with
        ``raise_on_violation=False`` violations accumulate in
        ``checker.violations`` instead of raising (the fuzzer's mode).
        """
        from ..verify import InvariantChecker

        self.checker = InvariantChecker(
            self, raise_on_violation=raise_on_violation
        )
        return self.checker

    # -- the cell's shape, as its spec describes it -------------------------------
    applications = property(lambda self: self.spec.applications)
    group_addrs = property(lambda self: self.spec.groups)
    shard_router = property(lambda self: self.spec.shard_router)
    manager_addrs = property(lambda self: self.spec.manager_addrs)

    def group_index_for(self, application: str) -> int:
        """Index of the manager group owning ``application`` (0 flat)."""
        return self.spec.group_index_for(application)

    def manager_addrs_for(self, application: str) -> Tuple[str, ...]:
        """Addresses of the group serving ``application``."""
        return self.spec.manager_addrs_for(application)

    def managers_for(self, application: str) -> List[AccessControlManager]:
        """The manager objects serving ``application``."""
        return self.manager_groups[self.group_index_for(application)]

    def n_managers_for(self, application: str) -> int:
        """``M`` for the group serving ``application``."""
        return len(self.manager_addrs_for(application))

    @property
    def n_managers(self) -> int:
        """Per-group manager count ``M`` (= total managers when K=1)."""
        return len(self.spec.groups[0])

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation."""
        self.env.run(until=until)

    def seed_grant(
        self, application: str, user: str, right: Right = Right.USE
    ) -> None:
        """Install a grant on *all* managers outside the protocol.

        Experiment setup only: equivalent to an ``Add`` that completed
        full propagation before time zero.
        """
        self.seed_grants(application, (user,), right)

    def seed_grants(
        self, application: str, users: Iterable[str], right: Right = Right.USE
    ) -> None:
        """:meth:`seed_grant` for each of ``users``, in one bulk write.

        Each manager of the owning group loads the whole batch in one
        ``bootstrap``; one ``GRANT_SEEDED`` record per user follows, in
        order.
        """
        users = list(users)
        batch = AclBatch.seeds(users, bytes([right.index]) * len(users))
        for manager in self.managers_for(application):
            manager.bootstrap(application, batch)
        tracer = self.tracer
        if tracer.wants(TraceKind.GRANT_SEEDED):
            for user in users:
                tracer.publish(
                    TraceKind.GRANT_SEEDED,
                    "system",
                    application=application,
                    user=user,
                    right=str(right),
                )
        else:
            tracer.bump(TraceKind.GRANT_SEEDED, len(users))

    def set_app_policy(self, application: str, policy: AccessPolicy) -> None:
        """Install a per-application policy on every host and the
        owning manager group."""
        policy.validate_for(self.n_managers_for(application))
        for host in self.hosts:
            host.set_policy(application, policy)
        for manager in self.managers_for(application):
            manager.set_policy(application, policy)

    def register_application(self, application: str) -> None:
        """Add a new application to its owning group and every host."""
        if application in self.applications:
            return
        self.spec = replace(self.spec, applications=self.applications + (application,))
        owners = self.manager_addrs_for(application)
        for manager in self.managers_for(application):
            manager.manage(application, owners)
        if self.shard_router is None:
            for host in self.hosts:
                host.set_managers(application, owners)

    def reachable_managers_from(
        self, host_index: int, application: Optional[str] = None
    ) -> int:
        """Instantaneous count of managers reachable from a host
        (ground truth for validation metrics, not visible to nodes).
        With ``application`` set, only the owning group is counted."""
        host = self.hosts[host_index]
        addrs = (
            self.manager_addrs
            if application is None
            else self.manager_addrs_for(application)
        )
        return sum(
            1 for addr in addrs if self.network.reachable(host.address, addr)
        )

    def __repr__(self) -> str:
        shards = len(self.spec.groups)
        shard_note = f" shards={shards}" if shards > 1 else ""
        return (
            f"<AccessControlSystem M={self.n_managers} hosts={self.n_hosts}"
            f"{shard_note} apps={list(self.applications)}>"
        )
