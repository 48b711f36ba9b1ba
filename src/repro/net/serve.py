"""``repro serve`` — boot live protocol endpoints on real sockets.

Three roles, one description of the cell between them: the *cell file*
(:func:`~repro.net.cell.read_cell`), the spec plus each node's endpoint.

* ``--role cell`` (the common one): an entire M-manager/N-host cell in
  one process on ephemeral ports, its cell file written to ``--cell``
  for ``repro load`` (and CI) to read.
* ``--role manager`` / ``--role host``: node ``--address`` of the cell
  file ``--cell``, alone in this process, on its own endpoint with the
  rest as peers — the shape a multi-process deployment uses.

A flag that does not shape the role booted (``--apps``,
``--check-quorum``, ``--managers`` and ``--hosts`` shape a whole cell;
``--address`` names a node; ``--grant`` seeds managers, so a host
refuses it) is refused with exit status 2, never silently ignored.

Every role builds through one recipe (:class:`~repro.net.cell.LiveRecipe`
over the spec), so a manager booted alone starts from the ACL its address
has inside ``--role cell``: the admin's ``MANAGE`` and every ``--grant``.
All roles speak one wire: answers RSA-signed or tagged under a pairwise
key (manager keys are still derived from the address, so separate
processes agree), in binary segments sealed under ``--secret`` with
replay nonces.

Examples
--------
Boot a 3-manager/2-host cell for 30 seconds::

    repro serve --role cell --managers 3 --hosts 2 \\
        --secret demo --cell /tmp/cell.json --run-for 30

Boot manager ``m0`` of a hand-written cell file::

    repro serve --role manager --cell cell.json --address m0 --secret demo
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import signal
from typing import List, Optional, Tuple

from ..argtypes import count, positive
from ..core.cellspec import CellSpec
from ..core.policy import AccessPolicy
from ..core.rights import Right
from .cell import (DEFAULT_SECRET, Directory, LiveCell, LiveRecipe, bootstrap_seeds, load_seeds,
                   read_cell, write_cell)
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
    parser.add_argument("--apps", default="app", type=_parse_names,
                        help="[cell] comma-separated application names (default: app)")
    parser.add_argument("--time-scale", type=positive(float), default=1.0,
                        help="sim-seconds per wall-second (default 1.0)")
    parser.add_argument("--run-for", type=float, default=None, metavar="SECONDS",
                        help="exit after this many wall seconds (default: run until signalled)")
    parser.add_argument("--check-quorum", type=int, default=AccessPolicy.check_quorum,
                        help="[cell] the policy's check quorum C (default %(default)s)")
    parser.add_argument("--grant", action="append", default=[], metavar="USER[:RIGHT]",
                        type=_parse_grant,
                        help="[cell|manager] seed a grant on every manager before start "
                             "(repeatable)")
    # -- cell role ---------------------------------------------------------
    parser.add_argument("--managers", type=positive(int), default=3,
                        help="[cell] number of managers (default 3)")
    parser.add_argument("--hosts", type=count, default=2,
                        help="[cell] number of application hosts (default 2)")
    parser.add_argument("--cell", default=None, metavar="FILE",
                        help="[cell] write the cell file here once up; "
                             "[manager|host] the cell file this node belongs to")
    # -- single-node roles ---------------------------------------------------
    parser.add_argument("--address", default=None,
                        help="[manager|host] this node's address in the cell file, e.g. m0")
    return parser


# Argument types: a malformed value raises ArgumentTypeError, which
# argparse reports against the flag with exit status 2.
def _parse_names(spec: str) -> Tuple[str, ...]:
    names = tuple(filter(None, (part.strip() for part in spec.split(","))))
    if not names:
        raise argparse.ArgumentTypeError(f"{spec!r} names nothing")
    return names


def _parse_grant(spec: str) -> Tuple[str, Right]:
    user, _, right = spec.partition(":")
    rights = {r.value: r for r in Right}
    if not user or (right and right not in rights):
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not USER[:RIGHT] with RIGHT one of {', '.join(rights)}"
        )
    return user, rights.get(right, Right.USE)


#: Flags (by dest) that shape only some roles, and those roles.
_ROLE_FLAGS = {"apps": {"cell"}, "check_quorum": {"cell"}, "managers": {"cell"},
               "hosts": {"cell"}, "address": {"manager", "host"},
               "grant": {"cell", "manager"}}


def _stray_flag(parser: argparse.ArgumentParser, argv: Optional[List[str]],
                role: str) -> Optional[str]:
    """The first flag on the command line that does not shape ``role``,
    else None.  Parsed again into a namespace that already holds None for
    each such dest: argparse writes a dest only when its flag is given (an
    appending flag turns the None into a list), so a None left in place
    means the flag was not."""
    given = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(_ROLE_FLAGS)))
    for dest, roles in _ROLE_FLAGS.items():
        if role not in roles and getattr(given, dest) is not None:
            return "--" + dest.replace("_", "-")
    return None


def _build_node(args: argparse.Namespace, spec: CellSpec) -> object:
    """This process's one node, built and seeded as ``--role cell`` builds
    its address."""
    recipe = LiveRecipe(spec)
    if args.role == "host":
        return recipe.host(args.address)
    manager = recipe.manager(args.address)
    load_seeds([manager], bootstrap_seeds(spec, args.grant))
    return manager


async def _run_until_signalled(run_for: Optional[float]) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:  # a timeout of None waits for the signal alone
        await asyncio.wait_for(stop.wait(), timeout=run_for)
    except asyncio.TimeoutError:
        pass


async def _serve_cell(args: argparse.Namespace, cell: LiveCell) -> int:
    for user, right in args.grant:
        for app in cell.spec.applications:
            cell.seed_grant(app, user, right)
    async with cell:
        if args.cell:
            write_cell(args.cell, cell.spec, cell.directory)
        lines = [f"cell up: {args.managers} managers, {args.hosts} hosts"]
        for addr, (host, port) in sorted(cell.directory.items()):
            lines.append(f"  {addr} -> {host}:{port}")
        print(*lines, sep="\n", flush=True)  # readiness must reach a pipe now, not at exit
        await _run_until_signalled(args.run_for)
    print("cell stopped")
    return 0


async def _serve_node(args: argparse.Namespace, node: object, directory: Directory,
                      secret: bytes) -> int:
    runtime = LiveRuntime(secret, time_scale=args.time_scale)
    runtime.register(node)
    bind_host, bind_port = directory[args.address]
    port = await runtime.start(bind_host, bind_port)
    runtime.set_peers(directory)
    # Flushed: readiness must reach a pipe now, not at exit.
    print(f"{args.role} {args.address} listening on {bind_host}:{port}", flush=True)
    try:
        await _run_until_signalled(args.run_for)
    finally:
        await runtime.stop()
    print(f"{args.address} stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stray = _stray_flag(parser, argv, args.role)
    if stray is not None:
        parser.error(f"argument {stray}: not allowed with --role {args.role}")
    secret = args.secret.encode("utf-8") if args.secret else DEFAULT_SECRET
    pin_allocator()
    if args.role == "cell":
        try:  # the one check the argument types cannot make: C against the managers
            cell = LiveCell(n_managers=args.managers, n_hosts=args.hosts, applications=args.apps,
                            policy=AccessPolicy(check_quorum=args.check_quorum), secret=secret,
                            time_scale=args.time_scale)
        except ValueError as exc:
            parser.error(f"argument --check-quorum: {exc}")
        return asyncio.run(_serve_cell(args, cell))
    if not (args.address and args.cell):
        parser.error("--address and --cell are required for --role manager|host")
    try:
        spec, directory = read_cell(args.cell)
    except (OSError, ValueError) as exc:
        parser.error(f"argument --cell: {exc}")
    if args.address not in (spec.manager_addrs if args.role == "manager" else spec.hosts):
        parser.error(f"argument --address: {args.address!r} is not a {args.role} of {args.cell}")
    return asyncio.run(_serve_node(args, _build_node(args, spec), directory, secret))
