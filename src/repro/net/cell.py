""":class:`LiveCell` — an in-process localhost deployment of the protocol.

The live analogue of :class:`~repro.core.system.AccessControlSystem`,
built from the same :class:`~repro.core.cellspec.CellSpec` (which is what
lets the differential suite demand identical decisions from both): each
node on its *own* :class:`~repro.net.runtime.LiveRuntime` (private
environment, private frame server, real TCP between them), all inside
one asyncio loop.  :class:`LiveRecipe` and :func:`bootstrap_seeds` add
what only live nodes carry — manager principals, the hosts'
authenticator, :class:`EchoApplication`, the admin's ``MANAGE`` — for
both :class:`LiveCell` and ``repro serve``'s single-node roles.

Every runtime binds port 0 first; the real ports are collected into a
shared address directory, and only then do the nodes learn their peers.

Outside a process, a live cell is a *cell file*: the spec plus each
node's endpoint (:func:`write_cell`, :func:`read_cell`).
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..auth.identity import Authenticator, Principal
from ..core.acl import AclBatch
from ..core.cellspec import CellSpec
from ..core.ids import Interner
from ..core.manager import AccessControlManager
from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.wrapper import Application, ApplicationHost
from ..sim.partitions import ScriptedConnectivity
from .runtime import LiveRuntime

__all__ = ["LiveCell", "LiveRecipe", "EchoApplication", "manager_principals", "bootstrap_seeds",
           "load_seeds", "read_cell", "write_cell", "DEFAULT_SECRET", "ADMIN_USER"]

T = TypeVar("T")

#: Default shared HMAC secret for ad-hoc localhost cells.
DEFAULT_SECRET = b"repro-localhost-cell"

#: Bootstrapped with ``Right.MANAGE`` on every application of a live
#: cell, so ``repro load`` can grant through the admin protocol.
ADMIN_USER = "admin"

#: application -> (users, right indices) a live manager is seeded with.
Seeds = Dict[str, Tuple[List[str], bytearray]]

#: node address -> (host, port) it listens on.
Directory = Dict[str, Tuple[str, int]]

_CELL_KEYS = {"applications", "groups", "hosts", "policy", "endpoints"}


class EchoApplication(Application):
    """The cell's stock application: echoes the payload back."""

    def __init__(self, name: str = "app"):
        self.name = name

    def handle_request(self, user: str, payload: Any) -> Any:
        return {"echo": payload, "user": user}


def manager_principals(spec: CellSpec) -> Dict[str, Principal]:
    """Every manager's signing identity, by address: the one place live
    manager keys come from.  Still :class:`Principal`'s name-derived
    default, so separately booted processes agree — and so does anyone
    who knows a manager's name (ROADMAP item 10)."""
    return {address: Principal(address) for address in spec.manager_addrs}


class LiveRecipe:
    """What only live nodes carry on top of :class:`CellSpec`'s: managers
    sign answers with their principal; hosts check them against one
    authenticator of every manager's key, and run an
    :class:`EchoApplication` per application."""

    def __init__(self, spec: CellSpec, interner: Optional[Interner] = None) -> None:
        self.spec = spec
        self.interner = interner
        self.principals = manager_principals(spec)
        self.authenticator = Authenticator()
        for principal in self.principals.values():
            self.authenticator.register(principal)

    def manager(self, address: str) -> AccessControlManager:
        return self.spec.manager(address, principal=self.principals.get(address),
                                 interner=self.interner)

    def host(self, address: str) -> ApplicationHost:
        host = self.spec.host(address, manager_authenticator=self.authenticator,
                              interner=self.interner)
        for app in self.spec.applications:
            host.deploy(EchoApplication(app))
        return host


def bootstrap_seeds(spec: CellSpec, grants: Sequence[Tuple[str, Right]] = ()) -> Seeds:
    """The ACL every live manager starts from: on each application, the
    admin's ``MANAGE`` and then each ``(user, right)`` of ``grants``."""
    users = [ADMIN_USER, *(user for user, _ in grants)]
    rights = [Right.MANAGE.index, *(right.index for _, right in grants)]
    return {app: (list(users), bytearray(rights)) for app in spec.applications}


def load_seeds(managers: Sequence[AccessControlManager], seeds: Seeds) -> None:
    """Hand each manager the seeds of every application it manages (its
    group's, in a cell of several), one bulk write each."""
    for application, (users, rights) in seeds.items():
        batch = AclBatch.seeds(users, bytes(rights))
        for manager in managers:
            if application in manager.acls:
                manager.bootstrap(application, batch)


def write_cell(path: str, spec: CellSpec, directory: Directory) -> None:
    """Write the cell file for ``spec`` at ``path``, atomically: a reader
    polling for the path sees no file or the whole one."""
    document = {"applications": spec.applications, "groups": spec.groups, "hosts": spec.hosts,
                "policy": {"check_quorum": spec.policy.check_quorum}, "endpoints": directory}
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _expect(ok: Any, fault: str) -> None:
    if not ok:
        raise ValueError(fault)


def _distinct_names(value: Any) -> bool:
    return (isinstance(value, list) and all(isinstance(name, str) and name for name in value)
            and len(set(value)) == len(value))


def read_cell(path: str) -> Tuple[CellSpec, Directory]:
    """The spec and endpoint directory of the cell file at ``path``.

    Outside input: OSError if unreadable, else ValueError naming the
    first fault against the form :func:`write_cell` writes (``policy``
    optional), one ``[host, port 0-65535]`` endpoint per node, unique
    names and the spec's own checks.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    _expect(isinstance(raw, dict) and _CELL_KEYS - {"policy"} <= set(raw) <= _CELL_KEYS,
            f"a cell file is an object of the keys {sorted(_CELL_KEYS)} (policy optional)")
    policy, groups, endpoints = raw.get("policy", {}), raw["groups"], raw["endpoints"]
    _expect(isinstance(policy, dict) and set(policy) <= {"check_quorum"}
            and type(policy.get("check_quorum", 1)) is int,
            "'policy' holds only an integer 'check_quorum'")
    for key in ("applications", "hosts"):
        _expect(_distinct_names(raw[key]), f"{key!r} must be a list of distinct names")
    _expect(isinstance(groups, list) and all(map(_distinct_names, groups)),
            "'groups' must be a list of lists of distinct names")
    spec = CellSpec(tuple(raw["applications"]), tuple(map(tuple, groups)), tuple(raw["hosts"]),
                    AccessPolicy(**policy))
    nodes = {*spec.manager_addrs, *spec.hosts}
    _expect(isinstance(endpoints, dict), "'endpoints' must map each node to [host, port]")
    _expect(set(endpoints) == nodes, f"nodes without an endpoint: {sorted(nodes - set(endpoints))}"
                                     f", endpoints of no node: {sorted(set(endpoints) - nodes)}")
    for address, endpoint in endpoints.items():
        _expect(isinstance(endpoint, list) and len(endpoint) == 2 and isinstance(endpoint[0], str)
                and endpoint[0] and type(endpoint[1]) is int and 0 <= endpoint[1] <= 65535,
                f"endpoint of {address!r} is not [host, port 0-65535]: {endpoint!r}")
    return spec, {address: (host, port) for address, (host, port) in endpoints.items()}


class LiveCell:
    """An M-manager / N-host cell over localhost TCP.

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly.  Every manager starts from
    :func:`bootstrap_seeds` plus what :meth:`seed_grant` recorded.
    ``codec`` accepts only ``"binary"``, as :class:`LiveRuntime` does.
    """

    admin_user = ADMIN_USER
    bind_host = "127.0.0.1"

    def __init__(
        self,
        n_managers: int = 3,
        n_hosts: int = 2,
        applications: Sequence[str] = ("app",),
        policy: Optional[AccessPolicy] = None,
        secret: bytes = DEFAULT_SECRET,
        time_scale: float = 1.0,
        codec: str = "binary",
    ) -> None:
        if codec != "binary":
            raise ValueError(f"unknown codec {codec!r}: the live wire is binary")
        self.spec = CellSpec.sized(n_managers, n_hosts, applications, policy)
        self.manager_addrs = self.spec.manager_addrs
        self.secret = secret
        # Scripted partitions shared by every runtime of the cell,
        # consulted at send time; never attached, so it traces nothing.
        self.connectivity = ScriptedConnectivity()
        self.directory: Directory = {}
        #: One user-name interner for every node of the cell, as
        #: :class:`~repro.core.system.AccessControlSystem` shares one.
        self.interner = Interner()
        #: Seeded grants so far; None once :meth:`start` has loaded them.
        self._seeds: Optional[Seeds] = bootstrap_seeds(self.spec)
        recipe = LiveRecipe(self.spec, self.interner)
        self.managers = [recipe.manager(addr) for addr in self.manager_addrs]
        self.hosts = [recipe.host(addr) for addr in self.spec.hosts]
        self.runtimes: Dict[str, LiveRuntime] = {}
        for node in [*self.managers, *self.hosts]:
            runtime = self.runtimes[node.address] = LiveRuntime(
                secret, time_scale=time_scale, connectivity=self.connectivity
            )
            runtime.register(node)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "LiveCell":
        self._load_seeds()
        for addr, runtime in self.runtimes.items():
            port = await runtime.start(self.bind_host, 0)
            self.directory[addr] = (self.bind_host, port)
        for runtime in self.runtimes.values():
            runtime.set_peers(self.directory)
        return self

    async def stop(self) -> None:
        await asyncio.gather(*(runtime.stop() for runtime in self.runtimes.values()))

    async def __aenter__(self) -> "LiveCell":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- construction-time setup ------------------------------------------------
    def seed_grant(self, application: str, user: str, right: Right = Right.USE) -> None:
        """Grant ``right`` to ``user`` on every manager, outside the protocol.

        Recorded here; :meth:`start` loads each application's grants in
        one bulk write, as an ``Add`` that completed before time zero.
        After ``start`` the managers' state belongs to their runtimes'
        passes, so seeding raises ``RuntimeError``.
        """
        if self._seeds is None:
            raise RuntimeError("seed_grant after start(): the cell is running")
        users, rights = self._seeds[application]  # KeyError: not an application of the cell
        users.append(user)
        rights.append(right.index)

    def _load_seeds(self) -> None:
        seeds, self._seeds = self._seeds, None
        load_seeds(self.managers, seeds or {})

    # -- cross-task execution -----------------------------------------------------
    def call(self, address: str, fn: Callable[[], T]) -> "asyncio.Future[T]":
        """Run ``fn()`` inside a pass of ``address``'s runtime; await the
        result.  Node state is read and written only inside its passes."""
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

    async def issue(self, address: str, application: str, user: str, grant: bool) -> None:
        """Grant (or revoke) ``user`` through manager ``address``; returns
        once every manager has applied the update."""
        manager = self.node(address)
        handle = await self.call(
            address, lambda: (manager.add if grant else manager.revoke)(application, user)
        )
        await self.runtimes[address].when(handle.complete)

    async def settle(self, sim_delta: float) -> None:
        """Let every node's clock advance ``sim_delta`` more sim-seconds:
        a barrier on the *laggiest* runtime, so every retry and expiry
        due in the window has fired everywhere before this returns."""
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
