"""One-call construction of a complete simulated deployment.

:class:`AccessControlSystem` wires together everything a study needs:
an environment, a traced network with a chosen partition model, ``M``
managers, ``N`` application hosts with drifting clocks, optionally a
trusted name service and a host-failure injector.  It is the backbone
of the examples, the simulation experiments, and the integration tests.

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

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..protocols.sharding import ShardRouter
from ..sim.clock import ClockFactory
from ..sim.engine import Environment
from ..sim.failures import CrashRecoveryInjector
from ..sim.network import FixedLatency, LatencyModel, Network, ShiftedExponentialLatency
from ..sim.partitions import ConnectivityModel, FullConnectivity
from ..sim.rng import RngStreams
from ..sim.trace import TraceKind, Tracer
from .ids import Interner
from .manager import AccessControlManager
from .name_service import TrustedNameService
from .policy import AccessPolicy
from .rights import SEED_ORIGIN, AclEntry, Right, Version
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
        Application names; every host serves all of them (deploy
        concrete :class:`~repro.core.wrapper.Application` objects to
        individual hosts as needed).
    policy:
        Default :class:`~repro.core.policy.AccessPolicy` for hosts and
        managers.
    connectivity / latency / loss_rate / duplicate_rate:
        Network behaviour, passed to
        :class:`~repro.sim.network.Network`; defaults to full
        connectivity with WAN-shaped latency and no loss.
    use_name_service:
        Resolve manager sets through a :class:`TrustedNameService`
        instead of static host configuration.
    clock_drift:
        Give hosts drifting clocks within the policy's bound ``b``
        (managers' timers use real-time intervals, which is equivalent
        to rate-1 clocks; only host expiry depends on drift).
    host_failures / manager_failures:
        Optional ``(mttf, mttr)`` pairs enabling crash/recovery
        injection for that node class.
    keep_trace_log:
        Retain every trace record in memory (tests, debugging).
    check_invariants:
        Attach a :class:`repro.verify.InvariantChecker` that raises
        :class:`repro.verify.InvariantViolation` the moment a protocol
        invariant breaks.  ``None`` (the default) defers to
        :func:`repro.verify.checking_enabled`, so exporting
        ``REPRO_CHECK_INVARIANTS=1`` (or the CLI's
        ``--check-invariants``) turns checking on for every system any
        experiment constructs.
    shards:
        ``K`` — number of independent manager *groups*.  With the
        default ``K=1`` the system is the classic flat deployment
        (manager addresses ``m0..m{M-1}``), byte-identical to every
        historical trace.  With ``K>1``, group ``g`` runs its own
        unmodified quorum/freeze dissemination instance over managers
        ``s{g}m0..s{g}m{M-1}``, applications are consistent-hashed onto
        groups by a :class:`~repro.protocols.sharding.ShardRouter`, and
        hosts resolve ``Managers(A)`` through the ring.  ``n_managers``
        is the *per-group* size ``M`` throughout.
    interner:
        Shared :class:`~repro.core.ids.Interner` backing every node's
        hot state (ACL columns, cache keys, deny tables); created
        fresh when omitted.  Mega-population runs pass
        ``population.interner()`` so principal names are stored nowhere
        but the population itself.
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
        use_name_service: bool = False,
        clock_drift: bool = True,
        host_failures: Optional[Tuple[float, float]] = None,
        manager_failures: Optional[Tuple[float, float]] = None,
        seed: int = 0,
        keep_trace_log: bool = False,
        check_invariants: Optional[bool] = None,
        shards: int = 1,
        interner: Optional[Interner] = None,
    ):
        if n_managers < 1:
            raise ValueError("need at least one manager")
        if n_hosts < 0:
            raise ValueError("host count cannot be negative")
        if not applications:
            raise ValueError("need at least one application")
        if shards < 1:
            raise ValueError("need at least one shard")
        self.policy = policy or AccessPolicy()
        self.policy.validate_for(n_managers)
        self.applications = tuple(applications)
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

        # Manager groups.  The flat (K=1) deployment keeps the classic
        # ``m{i}`` addresses; sharded groups are ``s{g}m{i}`` so group
        # membership is visible in every trace and log line.
        self.shards = shards
        self._group_size = n_managers
        if shards == 1:
            group_addrs = [tuple(f"m{i}" for i in range(n_managers))]
        else:
            group_addrs = [
                tuple(f"s{g}m{i}" for i in range(n_managers))
                for g in range(shards)
            ]
        self.group_addrs: Tuple[Tuple[str, ...], ...] = tuple(group_addrs)
        self.shard_router: Optional[ShardRouter] = None
        if shards > 1:
            self.shard_router = ShardRouter(self.group_addrs)

        self.managers: List[AccessControlManager] = []
        self.manager_groups: List[List[AccessControlManager]] = []
        for index, group in enumerate(self.group_addrs):
            owned = [
                app
                for app in self.applications
                if self.group_index_for(app) == index
            ]
            members: List[AccessControlManager] = []
            for addr in group:
                manager = self._new_manager(addr)
                # manage() before register(): attach spawns the per-app
                # dissemination monitors from the declared memberships.
                for app in owned:
                    manager.manage(app, group)
                self.network.register(manager)
                members.append(manager)
                self.managers.append(manager)
            self.manager_groups.append(members)
        self.manager_addrs = tuple(
            addr for group in self.group_addrs for addr in group
        )

        self.name_service: Optional[TrustedNameService] = None
        if use_name_service:
            self.name_service = TrustedNameService()
            for app in self.applications:
                self.name_service.register(app, self.manager_addrs_for(app))
            self.network.register(self.name_service)

        clock_factory = ClockFactory(
            self.env,
            b=self.policy.clock_bound,
            rng=self.streams.stream("clocks"),
        )
        self.hosts: List[ApplicationHost] = []
        for i in range(n_hosts):
            clock = clock_factory.make() if clock_drift else clock_factory.perfect()
            resolution: Dict[str, Any]
            if use_name_service:
                resolution = {"name_service": self.name_service.address}
            elif self.shard_router is not None:
                # Sharded: hosts carry no static maps — the router is
                # the (load-bearing) resolution path, a pure function
                # of the application name and the ring.
                resolution = {"shard_router": self.shard_router}
            else:
                resolution = {
                    "managers": {app: self.manager_addrs for app in self.applications}
                }
            host = ApplicationHost(
                f"h{i}", self.policy, clock=clock, interner=self.interner, **resolution
            )
            self.network.register(host)
            self.hosts.append(host)

        self.host_injector: Optional[CrashRecoveryInjector] = None
        if host_failures is not None:
            mttf, mttr = host_failures
            self.host_injector = CrashRecoveryInjector(
                self.env,
                self.hosts,
                mttf=mttf,
                mttr=mttr,
                rng=self.streams.stream("host-failures"),
                tracer=self.tracer,
            )
        self.manager_injector: Optional[CrashRecoveryInjector] = None
        if manager_failures is not None:
            mttf, mttr = manager_failures
            self.manager_injector = CrashRecoveryInjector(
                self.env,
                self.managers,
                mttf=mttf,
                mttr=mttr,
                rng=self.streams.stream("manager-failures"),
                tracer=self.tracer,
            )

        self.checker = None
        if check_invariants is None:
            from ..verify import checking_enabled

            check_invariants = checking_enabled()
        if check_invariants:
            self.attach_invariant_checker(raise_on_violation=True)

    def _new_manager(self, address: str) -> AccessControlManager:
        """One manager-group member; a subclass may build another
        manager class (the experiments' lying managers)."""
        return AccessControlManager(address, self.policy, interner=self.interner)

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

    # -- shard routing -----------------------------------------------------------
    def group_index_for(self, application: str) -> int:
        """Index of the manager group owning ``application`` (0 flat)."""
        if self.shard_router is None:
            return 0
        return self.shard_router.shard_of(application)

    def manager_addrs_for(self, application: str) -> Tuple[str, ...]:
        """Addresses of the group serving ``application``."""
        return self.group_addrs[self.group_index_for(application)]

    def managers_for(self, application: str) -> List[AccessControlManager]:
        """The manager objects serving ``application``."""
        return self.manager_groups[self.group_index_for(application)]

    def n_managers_for(self, application: str) -> int:
        """``M`` for the group serving ``application``."""
        return len(self.group_addrs[self.group_index_for(application)])

    # -- convenience ------------------------------------------------------------
    @property
    def n_managers(self) -> int:
        """Per-group manager count ``M`` (= total managers when K=1)."""
        return self._group_size

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
        entry = AclEntry(
            user=user, right=right, granted=True, version=Version(1, SEED_ORIGIN)
        )
        for manager in self.managers_for(application):
            manager.bootstrap(application, [entry])
        tracer = self.tracer
        if tracer.wants(TraceKind.GRANT_SEEDED):
            tracer.publish(
                TraceKind.GRANT_SEEDED,
                "system",
                application=application,
                user=user,
                right=str(right),
            )
        else:
            tracer.bump(TraceKind.GRANT_SEEDED)

    def seed_grants(
        self, application: str, users: Iterable[str], right: Right = Right.USE
    ) -> None:
        for user in users:
            self.seed_grant(application, user, right)

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
        self.applications = self.applications + (application,)
        owners = self.manager_addrs_for(application)
        for manager in self.managers_for(application):
            manager.manage(application, owners)
        if self.name_service is not None:
            self.name_service.register(application, owners)
        for host in self.hosts:
            if self.name_service is None and self.shard_router is None:
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
        shard_note = f" shards={self.shards}" if self.shards > 1 else ""
        return (
            f"<AccessControlSystem M={self.n_managers} hosts={self.n_hosts}"
            f"{shard_note} apps={list(self.applications)}>"
        )
