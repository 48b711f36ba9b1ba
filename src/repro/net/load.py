"""``repro load`` — a closed-loop load generator for a live cell.

Boots ``--clients`` :class:`~repro.core.client.UserClient` nodes in one
local runtime, points them at the hosts of the cell file ``--cell``
(:func:`~repro.net.cell.read_cell`), and drives a closed loop: each
client issues an application request, awaits the response, and
immediately issues the next, for ``--duration`` wall seconds.

Each client's user is first granted access *through the protocol*: an
:class:`~repro.core.admin.AdminClient` (identity ``--admin-user``,
which the cell bootstraps with the manage right) sends a signed-path
``AdminRequest`` to a manager of ``Managers(--app)`` and waits for the
quorum-acknowledged ``AdminResponse`` — so a load run exercises
administration, dissemination, verification, caching, and the
application wrapper over real sockets before the first measured request.

The report uses the PR-5 streaming summaries: wall-clock request
latency quantiles (p50/p95/p99), throughput, and outcome counts,
printed as text or ``--json``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import secrets
import time
from typing import Any, Dict, List, Optional

from ..argtypes import positive
from ..core.admin import AdminClient
from ..core.cellspec import CellSpec
from ..core.client import UserClient
from ..metrics.streaming import StreamingSummary
from .cell import DEFAULT_SECRET, Directory, read_cell
from .runtime import LiveRuntime

__all__ = ["main", "build_parser", "run_load"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro load",
        description="Drive a live cell with closed-loop client traffic.",
    )
    parser.add_argument("--cell", required=True, metavar="FILE",
                        help="the cell file, as repro serve --role cell writes it")
    parser.add_argument("--secret", default=None,
                        help="shared HMAC session secret (must match the cell's)")
    parser.add_argument("--clients", type=positive(int), default=4,
                        help="number of concurrent closed-loop clients (default 4)")
    parser.add_argument("--duration", type=positive(float), default=5.0,
                        help="measured wall seconds of load (default 5)")
    parser.add_argument("--app", default="app",
                        help="application to invoke (default: app)")
    parser.add_argument("--user-prefix", default="load-user",
                        help="client user ids are PREFIX-<i>")
    parser.add_argument("--admin-user", default="admin",
                        help="manage-right identity used to grant the client users")
    parser.add_argument("--time-scale", type=positive(float), default=1.0,
                        help="client-side sim-seconds per wall-second")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    return parser


async def run_load(
    spec: CellSpec,
    directory: Directory,
    secret: bytes,
    n_clients: int = 4,
    duration: float = 5.0,
    application: str = "app",
    user_prefix: str = "load-user",
    admin_user: str = "admin",
    time_scale: float = 1.0,
) -> Dict[str, Any]:
    """Drive the hosts of ``spec``, whose nodes listen at ``directory``;
    returns the report dict (pure-Python entry point)."""
    # Client node addresses carry a per-run tag: the cell's session auth
    # tracks replay nonces per sender name, so a second load run reusing
    # the previous run's names would start its nonces over and be
    # rejected wholesale as a replay.  Fresh names give each run a fresh
    # nonce namespace (the protocol identities --admin-user/--user-prefix
    # are unaffected).
    tag = secrets.token_hex(3)
    runtime = LiveRuntime(secret, time_scale=time_scale)
    admin = AdminClient(f"load-{tag}-admin", admin_user)
    runtime.register(admin)
    clients: List[UserClient] = []
    for index in range(n_clients):
        client = UserClient(f"load-{tag}-c{index}", f"{user_prefix}-{index}")
        runtime.register(client)
        clients.append(client)

    report: Dict[str, Any] = {"clients": n_clients, "application": application}
    await runtime.start()
    try:
        runtime.set_peers(directory)

        # Phase 1: grant every client user through the admin protocol.
        grant_started = time.monotonic()
        manager_addrs = spec.manager_addrs_for(application)
        for index, client in enumerate(clients):
            manager = manager_addrs[index % len(manager_addrs)]
            result = await runtime.run_process(
                admin.add(manager, application, client.user_id)
            )
            if not result.accepted:
                raise RuntimeError(
                    f"admin grant for {client.user_id} via {manager} failed: "
                    f"{result.reason or 'timed out'}"
                )
        report["grant_seconds"] = round(time.monotonic() - grant_started, 3)

        # Phase 2: the measured closed loop.
        latencies = StreamingSummary(seed=0)
        outcomes: Dict[str, int] = {}
        counter = itertools.count()

        async def closed_loop(client: UserClient, host: str) -> int:
            completed = 0
            while time.monotonic() < deadline:
                begin = time.monotonic()
                result = await runtime.run_process(
                    client.invoke(host, application, {"seq": next(counter)})
                )
                latencies.add((time.monotonic() - begin) * 1000.0)
                key = (
                    "ok" if result.allowed
                    else ("timeout" if result.timed_out else result.reason or "rejected")
                )
                outcomes[key] = outcomes.get(key, 0) + 1
                completed += 1
            return completed

        start = time.monotonic()
        deadline = start + duration
        totals = await asyncio.gather(
            *(
                closed_loop(client, spec.hosts[index % len(spec.hosts)])
                for index, client in enumerate(clients)
            )
        )
        elapsed = time.monotonic() - start

        total = sum(totals)
        stats = latencies.summary()
        report.update(
            {
                "requests": total,
                "seconds": round(elapsed, 3),
                "rps": round(total / elapsed, 2) if elapsed > 0 else 0.0,
                "outcomes": dict(sorted(outcomes.items())),
                "latency_ms": None
                if stats is None
                else {
                    "mean": round(stats.mean, 3),
                    "p50": round(stats.p50, 3),
                    "p95": round(stats.p95, 3),
                    "p99": round(stats.p99, 3),
                    "min": round(stats.minimum, 3),
                    "max": round(stats.maximum, 3),
                },
            }
        )
        report["wire"] = runtime.transport.wire_stats()
    finally:
        await runtime.stop()
    return report


def _print_report(report: Dict[str, Any]) -> None:
    print(
        f"{report['requests']} requests in {report['seconds']}s "
        f"({report['rps']} req/s, {report['clients']} clients)"
    )
    print(f"outcomes: {report['outcomes']}")
    latency = report["latency_ms"]
    if latency:
        print(
            "latency ms: "
            f"p50={latency['p50']} p95={latency['p95']} p99={latency['p99']} "
            f"mean={latency['mean']} min={latency['min']} max={latency['max']}"
        )
    wire = report.get("wire")
    if wire:
        print(
            "wire: "
            f"sent={wire['bytes_sent']}B/{wire['frames_sent']}f "
            f"recv={wire['bytes_received']}B/{wire['frames_received']}f "
            f"segments={wire['segments_sent']}out/{wire['segments_received']}in "
            f"msgs/segment={wire['msgs_per_segment']:.1f}"
        )
    print(f"admin grants took {report['grant_seconds']}s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec, directory = read_cell(args.cell)
    except (OSError, ValueError) as exc:
        parser.error(f"argument --cell: {exc}")
    if not spec.hosts:
        parser.error(f"argument --cell: {args.cell} has no hosts to load")
    if args.app not in spec.applications:
        parser.error(f"argument --app: {args.app!r} is not an application of {args.cell}")
    secret = args.secret.encode("utf-8") if args.secret else DEFAULT_SECRET
    report = asyncio.run(
        run_load(
            spec,
            directory,
            secret,
            n_clients=args.clients,
            duration=args.duration,
            application=args.app,
            user_prefix=args.user_prefix,
            admin_user=args.admin_user,
            time_scale=args.time_scale,
        )
    )
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_report(report)
    return 0
