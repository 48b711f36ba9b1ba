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
identity alone, so separate processes agree), HMAC session frames with
replay nonces under ``--secret``, and length-prefixed codec frames.

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
    parser.add_argument("--time-scale", type=float, default=1.0,
                        help="sim-seconds per wall-second (default 1.0)")
    parser.add_argument("--codec", choices=("json", "binary"), default="json",
                        help="preferred outbound wire codec; every link still "
                             "negotiates per connection (default json)")
    parser.add_argument("--no-accept-binary", action="store_true",
                        help="reject binary hellos (peers downgrade to JSON)")
    parser.add_argument("--run-for", type=float, default=None, metavar="SECONDS",
                        help="exit after this many wall seconds (default: run until signalled)")
    parser.add_argument("--check-quorum", type=int, default=None,
                        help="override the policy's check quorum C")
    # -- cell role ---------------------------------------------------------
    parser.add_argument("--managers", type=int, default=3,
                        help="[cell] number of managers (default 3)")
    parser.add_argument("--hosts", type=int, default=2,
                        help="[cell] number of application hosts (default 2)")
    parser.add_argument("--port-file", default=None,
                        help="[cell] write the address->host:port directory as JSON here")
    parser.add_argument("--grant", action="append", default=[], metavar="USER[:RIGHT]",
                        help="[cell] seed a grant before start (repeatable)")
    # -- single-node roles ---------------------------------------------------
    parser.add_argument("--address", default=None,
                        help="[manager|host] this node's protocol address, e.g. m0")
    parser.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="[manager|host] bind endpoint (default 127.0.0.1:0)")
    parser.add_argument("--peers", default="", metavar="ADDR=HOST:PORT,...",
                        help="[manager|host] static peer directory")
    parser.add_argument("--manager-set", default="", metavar="m0,m1,...",
                        help="[manager|host] the full Managers(A) address set")
    return parser


def _parse_peers(spec: str) -> Dict[str, Tuple[str, int]]:
    directory: Dict[str, Tuple[str, int]] = {}
    for item in filter(None, (part.strip() for part in spec.split(","))):
        addr, _, endpoint = item.partition("=")
        host, _, port = endpoint.rpartition(":")
        directory[addr] = (host, int(port))
    return directory


def _parse_grants(specs: List[str]) -> List[Tuple[str, Right]]:
    grants = []
    for spec in specs:
        user, _, right = spec.partition(":")
        grants.append((user, Right(right) if right else Right.USE))
    return grants


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


async def _serve_cell(args: argparse.Namespace, secret: bytes) -> int:
    applications = tuple(filter(None, args.apps.split(",")))
    cell = LiveCell(
        n_managers=args.managers,
        n_hosts=args.hosts,
        applications=applications,
        policy=_policy(args, args.managers),
        secret=secret,
        time_scale=args.time_scale,
        codec=args.codec,
        accept_binary=not args.no_accept_binary,
    )
    for user, right in _parse_grants(args.grant):
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


async def _serve_node(args: argparse.Namespace, secret: bytes) -> int:
    if not args.address:
        raise SystemExit("--address is required for --role manager|host")
    manager_set = tuple(filter(None, args.manager_set.split(",")))
    if not manager_set:
        raise SystemExit("--manager-set is required for --role manager|host")
    applications = tuple(filter(None, args.apps.split(",")))
    policy = _policy(args, len(manager_set))

    runtime = LiveRuntime(
        secret,
        time_scale=args.time_scale,
        codec=args.codec,
        accept_binary=not args.no_accept_binary,
    )
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

    bind_host, _, bind_port = args.listen.rpartition(":")
    port = await runtime.start(bind_host or "127.0.0.1", int(bind_port))
    runtime.set_peers(_parse_peers(args.peers))
    print(f"{args.role} {args.address} listening on {bind_host}:{port}")
    try:
        await _run_until_signalled(args.run_for)
    finally:
        await runtime.stop()
    print(f"{args.address} stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    secret = args.secret.encode("utf-8") if args.secret else DEFAULT_SECRET
    pin_allocator()
    if args.role == "cell":
        return asyncio.run(_serve_cell(args, secret))
    return asyncio.run(_serve_node(args, secret))
