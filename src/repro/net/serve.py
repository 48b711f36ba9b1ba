"""``repro serve`` — boot live protocol endpoints on real sockets.

Three roles:

* ``--role cell`` (the common one): an entire M-manager/N-host cell in
  one process, ephemeral ports, with the address directory written to
  ``--port-file`` for ``repro load`` (and CI) to consume.
* ``--role manager`` / ``--role host``: a single node in this process,
  with an explicit ``--listen`` endpoint and a static ``--peers``
  directory — the shape a real multi-machine deployment uses.

All roles speak the same wire protocol: query responses RSA-signed or,
once a host has handed a manager its pairwise key, tagged under it
(:class:`~repro.auth.Principal`'s default key is a function of the
identity alone, so separate processes agree), and length-prefixed
binary segments sealed under ``--secret`` with replay nonces.

Examples
--------
Boot a 3-manager/2-host cell for 30 seconds::

    repro serve --role cell --managers 3 --hosts 2 \\
        --secret demo --port-file /tmp/cell.json --run-for 30

Boot one manager of a hand-wired cell::

    repro serve --role manager --address m0 --listen 127.0.0.1:7100 \\
        --peers m1=127.0.0.1:7101,m2=127.0.0.1:7102,h0=127.0.0.1:7200 \\
        --manager-set m0,m1,m2 --secret demo
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import signal
from typing import Dict, List, Optional, Tuple

from ..argtypes import positive
from ..auth.identity import Authenticator, Principal
from ..core.manager import AccessControlManager
from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.wrapper import ApplicationHost
from .cell import DEFAULT_SECRET, EchoApplication, LiveCell
from .runtime import LiveRuntime

__all__ = ["main", "build_parser", "pin_allocator"]


def pin_allocator() -> bool:
    """Keep glibc malloc in one regime; False (and nothing done) off glibc.

    asyncio reads into a fresh 256 KiB buffer each time; glibc may serve
    it from the heap top and then trim and regrow the heap per read — 15 %
    slower, from a moment that differs run to run (``bench_e2e/README.md``,
    "Allocator": the benchmark pins the same three thresholds).
    """
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt(m_mmap_threshold, 16 << 20)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_top_pad, 16 << 20)
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run live access-control endpoints over TCP.",
    )
    parser.add_argument(
        "--role", choices=("cell", "manager", "host"), default="cell",
        help="what to boot in this process (default: a whole cell)",
    )
    parser.add_argument("--secret", default=None,
                        help="shared HMAC session secret for the cell")
    parser.add_argument("--apps", default="app",
                        help="comma-separated application names (default: app)")
    parser.add_argument("--time-scale", type=positive(float), default=1.0,
                        help="sim-seconds per wall-second (default 1.0)")
    parser.add_argument("--run-for", type=float, default=None, metavar="SECONDS",
                        help="exit after this many wall seconds (default: run until signalled)")
    parser.add_argument("--check-quorum", type=int, default=None,
                        help="override the policy's check quorum C")
    # -- cell role ---------------------------------------------------------
    parser.add_argument("--managers", type=positive(int), default=3,
                        help="[cell] number of managers (default 3)")
    parser.add_argument("--hosts", type=int, default=2,
                        help="[cell] number of application hosts (default 2)")
    parser.add_argument("--port-file", default=None,
                        help="[cell] write the address->host:port directory as JSON here")
    parser.add_argument("--grant", action="append", default=[], metavar="USER[:RIGHT]",
                        type=_parse_grant,
                        help="[cell] seed a grant before start (repeatable)")
    # -- single-node roles ---------------------------------------------------
    parser.add_argument("--address", default=None,
                        help="[manager|host] this node's protocol address, e.g. m0")
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        type=_parse_listen,
                        help="[manager|host] bind endpoint (default 127.0.0.1:0)")
    parser.add_argument("--peers", default="", metavar="ADDR=HOST:PORT,...",
                        type=_parse_peers,
                        help="[manager|host] static peer directory")
    parser.add_argument("--manager-set", default="", metavar="m0,m1,...",
                        help="[manager|host] the full Managers(A) address set")
    return parser


# Argument types: a malformed value raises ArgumentTypeError, which
# argparse reports against the flag with exit status 2.
def _is_port(text: str) -> bool:
    return text.isascii() and text.isdigit() and int(text) < 65536


def _parse_listen(spec: str) -> Tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not (sep and _is_port(port)):
        raise argparse.ArgumentTypeError(f"{spec!r} is not HOST:PORT")
    return host or "127.0.0.1", int(port)


def _parse_peers(spec: str) -> Dict[str, Tuple[str, int]]:
    directory: Dict[str, Tuple[str, int]] = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        addr, _, endpoint = item.partition("=")
        host, _, port = endpoint.rpartition(":")
        if not (addr and host and _is_port(port)):
            raise argparse.ArgumentTypeError(f"{item!r} is not ADDR=HOST:PORT")
        directory[addr] = (host, int(port))
    return directory


def _parse_grant(spec: str) -> Tuple[str, Right]:
    user, _, right = spec.partition(":")
    rights = {r.value: r for r in Right}
    if not user or (right and right not in rights):
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not USER[:RIGHT] with RIGHT one of {', '.join(rights)}"
        )
    return user, rights.get(right, Right.USE)


def _policy(args: argparse.Namespace, n_managers: int) -> AccessPolicy:
    policy = AccessPolicy()
    if args.check_quorum is not None:
        policy = AccessPolicy(check_quorum=args.check_quorum)
    policy.validate_for(n_managers)
    return policy


async def _run_until_signalled(run_for: Optional[float]) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        try:
            loop.add_signal_handler(getattr(signal, signame), stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if run_for is not None:
        try:
            await asyncio.wait_for(stop.wait(), timeout=run_for)
        except asyncio.TimeoutError:
            pass
    else:
        await stop.wait()


async def _serve_cell(args: argparse.Namespace, secret: bytes, policy: AccessPolicy) -> int:
    applications = tuple(filter(None, args.apps.split(",")))
    cell = LiveCell(
        n_managers=args.managers,
        n_hosts=args.hosts,
        applications=applications,
        policy=policy,
        secret=secret,
        time_scale=args.time_scale,
    )
    for user, right in args.grant:
        for app in applications:
            cell.seed_grant(app, user, right)
    async with cell:
        if args.port_file:
            directory = {
                addr: [host, port] for addr, (host, port) in cell.directory.items()
            }
            with open(args.port_file, "w", encoding="utf-8") as handle:
                json.dump(directory, handle)
        print(f"cell up: {args.managers} managers, {args.hosts} hosts")
        for addr, (host, port) in sorted(cell.directory.items()):
            print(f"  {addr} -> {host}:{port}")
        await _run_until_signalled(args.run_for)
    print("cell stopped")
    return 0


async def _serve_node(
    args: argparse.Namespace, secret: bytes, policy: AccessPolicy, manager_set: Tuple[str, ...]
) -> int:
    applications = tuple(filter(None, args.apps.split(",")))
    runtime = LiveRuntime(secret, time_scale=args.time_scale)
    if args.role == "manager":
        node: object = AccessControlManager(
            args.address, policy, principal=Principal(args.address)
        )
        for app in applications:
            node.manage(app, manager_set)
    else:
        authenticator = Authenticator()
        for addr in manager_set:
            authenticator.register(Principal(addr))
        node = ApplicationHost(
            args.address,
            policy,
            managers={app: manager_set for app in applications},
            manager_authenticator=authenticator,
        )
        for app in applications:
            node.deploy(EchoApplication(app))
    runtime.register(node)

    bind_host, bind_port = args.listen
    port = await runtime.start(bind_host, bind_port)
    runtime.set_peers(args.peers)
    print(f"{args.role} {args.address} listening on {bind_host}:{port}")
    try:
        await _run_until_signalled(args.run_for)
    finally:
        await runtime.stop()
    print(f"{args.address} stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manager_set = tuple(filter(None, args.manager_set.split(",")))
    if args.role != "cell":
        if not args.address:
            parser.error("--address is required for --role manager|host")
        if not manager_set:
            parser.error("--manager-set is required for --role manager|host")
    try:
        policy = _policy(args, args.managers if args.role == "cell" else len(manager_set))
    except ValueError as exc:
        parser.error(f"argument --check-quorum: {exc}")
    secret = args.secret.encode("utf-8") if args.secret else DEFAULT_SECRET
    pin_allocator()
    if args.role == "cell":
        return asyncio.run(_serve_cell(args, secret, policy))
    return asyncio.run(_serve_node(args, secret, policy, manager_set))
