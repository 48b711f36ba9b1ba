""":class:`LiveCell` — an in-process localhost deployment of the protocol.

The live analogue of :class:`~repro.core.system.AccessControlSystem`:
``M`` managers and ``N`` application hosts, each on its *own*
:class:`~repro.net.runtime.LiveRuntime` (private environment, private
frame server, real TCP between them), all inside one asyncio loop so a
test can boot a whole cell in milliseconds and tear it down cleanly.

Construction mirrors the sim system exactly — same policy object, same
seed-grant versions, RSA principals on the managers with an
authenticator on the hosts — which is what lets the differential suite
run one scenario through both and demand identical decisions.

Bootstrap order matters with ephemeral ports: every runtime binds port
0 first, the real ports are collected into a shared address directory,
and only then do the nodes learn their peers.  Seeded grants are recorded
until :meth:`LiveCell.start`, which loads each application's list into
every manager in one bulk write.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..auth.identity import Authenticator, Principal
from ..core.acl import AclBatch
from ..core.ids import Interner
from ..core.manager import AccessControlManager
from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.wrapper import Application, ApplicationHost
from ..sim.partitions import ScriptedConnectivity
from .runtime import LiveRuntime
from .session import DEFAULT_LIFETIME

__all__ = ["LiveCell", "EchoApplication", "DEFAULT_SECRET"]

T = TypeVar("T")

#: Default shared HMAC secret for ad-hoc localhost cells.
DEFAULT_SECRET = b"repro-localhost-cell"


class EchoApplication(Application):
    """The cell's stock application: echoes the payload back."""

    def __init__(self, name: str = "app"):
        self.name = name

    def handle_request(self, user: str, payload: Any) -> Any:
        return {"echo": payload, "user": user}


class LiveCell:
    """An M-manager / N-host cell over localhost TCP.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  ``admin_user`` is bootstrapped with
    ``Right.MANAGE`` on every application so ``repro load`` (and the
    admin path of the differential scenarios) can issue grants through
    the real :class:`~repro.protocols.admin.AdminService`.

    ``codec`` accepts only ``"binary"``, as :class:`LiveRuntime` does.
    """

    def __init__(
        self,
        n_managers: int = 3,
        n_hosts: int = 2,
        applications: Sequence[str] = ("app",),
        policy: Optional[AccessPolicy] = None,
        secret: bytes = DEFAULT_SECRET,
        time_scale: float = 1.0,
        lifetime: float = DEFAULT_LIFETIME,
        admin_user: str = "admin",
        sign_responses: bool = True,
        bind_host: str = "127.0.0.1",
        keep_log: bool = False,
        codec: str = "binary",
    ) -> None:
        if codec != "binary":
            raise ValueError(f"unknown codec {codec!r}: the live wire is binary")
        if n_managers < 1:
            raise ValueError("need at least one manager")
        self.policy = policy or AccessPolicy()
        self.policy.validate_for(n_managers)
        self.applications = tuple(applications)
        self.secret = secret
        self.time_scale = float(time_scale)
        self.lifetime = lifetime
        self.admin_user = admin_user
        self.bind_host = bind_host
        # Scripted partitions shared by every runtime of the cell,
        # consulted at send time; never attached, so it traces nothing.
        self.connectivity = ScriptedConnectivity()
        self.directory: Dict[str, Tuple[str, int]] = {}
        self._started = False
        #: One user-name interner for every node of the cell, as
        #: :class:`~repro.core.system.AccessControlSystem` shares one.
        self.interner = Interner()
        #: application -> (users, right indices) seeded so far; None once
        #: :meth:`start` has handed them to the managers.
        self._seeds: Optional[Dict[str, Tuple[List[str], bytearray]]] = {}

        def make_runtime() -> LiveRuntime:
            return LiveRuntime(
                secret,
                time_scale=self.time_scale,
                lifetime=lifetime,
                connectivity=self.connectivity,
                keep_log=keep_log,
            )

        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        manager_auth: Optional[Authenticator] = None
        if sign_responses:
            manager_auth = Authenticator()

        self.runtimes: Dict[str, LiveRuntime] = {}
        self.managers: List[AccessControlManager] = []
        for addr in self.manager_addrs:
            principal = Principal(addr) if sign_responses else None
            if manager_auth is not None and principal is not None:
                manager_auth.register(principal)
            manager = AccessControlManager(
                addr, self.policy, principal=principal, interner=self.interner
            )
            for app in self.applications:
                manager.manage(app, self.manager_addrs)
            runtime = make_runtime()
            runtime.register(manager)
            self.runtimes[addr] = runtime
            self.managers.append(manager)

        self.hosts: List[ApplicationHost] = []
        for i in range(n_hosts):
            host = ApplicationHost(
                f"h{i}",
                self.policy,
                managers={app: self.manager_addrs for app in self.applications},
                manager_authenticator=manager_auth,
                interner=self.interner,
            )
            for app in self.applications:
                host.deploy(EchoApplication(app))
            runtime = make_runtime()
            runtime.register(host)
            self.runtimes[host.address] = runtime
            self.hosts.append(host)

        # Out-of-protocol bootstrap, exactly like the sim system: seeded
        # grants predate time zero, and the admin holds MANAGE everywhere.
        for app in self.applications:
            self.seed_grant(app, admin_user, Right.MANAGE)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "LiveCell":
        self._load_seeds()
        for addr, runtime in self.runtimes.items():
            port = await runtime.start(self.bind_host, 0)
            self.directory[addr] = (self.bind_host, port)
        for runtime in self.runtimes.values():
            runtime.set_peers(self.directory)
        self._started = True
        return self

    async def stop(self) -> None:
        self._started = False
        await asyncio.gather(*(runtime.stop() for runtime in self.runtimes.values()))

    async def __aenter__(self) -> "LiveCell":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- construction-time setup ------------------------------------------------
    def seed_grant(self, application: str, user: str, right: Right = Right.USE) -> None:
        """Grant ``right`` to ``user`` on every manager, outside the protocol.

        Pre-start only.  The grant is recorded here, and :meth:`start`
        hands each manager every recorded grant of an application in one
        :meth:`~repro.core.manager.AccessControlManager.bootstrap`, as an
        ``Add`` that completed before time zero.  After ``start`` the
        managers' state belongs to their runtimes' passes (see
        :meth:`call`), so seeding raises ``RuntimeError``; grant through
        the protocol instead.
        """
        if self._seeds is None:
            raise RuntimeError("seed_grant after start(): the cell is running")
        if application not in self.applications:
            raise KeyError(f"the cell does not serve {application!r}")
        users, rights = self._seeds.setdefault(application, ([], bytearray()))
        users.append(user)
        rights.append(right.index)

    def _load_seeds(self) -> None:
        """Hand every manager the recorded grants, one batch per application."""
        seeds, self._seeds = self._seeds, None
        for application, (users, rights) in (seeds or {}).items():
            batch = AclBatch.seeds(users, bytes(rights))
            for manager in self.managers:
                manager.bootstrap(application, batch)

    # -- cross-task execution -----------------------------------------------------
    def runtime_of(self, address: str) -> LiveRuntime:
        return self.runtimes[address]

    def call(self, address: str, fn: Callable[[], T]) -> "asyncio.Future[T]":
        """Run ``fn()`` inside a pass of ``address``'s runtime; await the result.

        This is how tests touch node state (issue an update, script a
        crash) without racing the protocol: everything that reads or
        writes a node happens in its own runtime's pass.
        """
        runtime = self.runtimes[address]
        assert runtime.loop is not None, "cell not started"
        future: "asyncio.Future[T]" = runtime.loop.create_future()

        def _run() -> None:
            try:
                future.set_result(fn())
            except Exception as exc:  # surfaced to the awaiting test
                future.set_exception(exc)

        runtime.call_soon(_run)
        return future

    async def check(
        self, host_index: int, application: str, user: str, right: Right = Right.USE
    ) -> Any:
        """Run one access check on a host; returns its ``AccessDecision``."""
        host = self.hosts[host_index]
        runtime = self.runtimes[host.address]
        return await runtime.run_process(
            host.check_access(application, user, right),
            name=f"{host.address}/check:{user}@{application}",
        )

    async def settle(self, sim_delta: float) -> None:
        """Let every node's clock advance ``sim_delta`` more sim-seconds.

        The live analogue of ``env.run(until=now + delta)``: a barrier on
        the *laggiest* runtime, so all retries/expiries due in the window
        have fired everywhere before the test proceeds.
        """
        target = max(rt.env.now for rt in self.runtimes.values()) + sim_delta
        await asyncio.gather(*(rt.wait_until(target) for rt in self.runtimes.values()))

    # -- failure scripting --------------------------------------------------------
    async def crash(self, address: str) -> None:
        await self.call(address, self.node(address).crash)

    async def recover(self, address: str) -> None:
        await self.call(address, self.node(address).recover)

    def node(self, address: str) -> Any:
        return self.runtimes[address].transport.nodes[address]

    def partition(self, address: str, others: Sequence[str]) -> None:
        """Block traffic both ways between ``address`` and ``others``."""
        self.connectivity.isolate(address, others)

    def heal(self) -> None:
        self.connectivity.heal()
