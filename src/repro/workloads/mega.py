"""The mega-population cell: 10^5–10^6 principals, sharded managers.

Exercises the identity-interning and sharding layers end to end at the
scale the paper's WAN setting implies: a Zipf-skewed population with
day/night (diurnal) arrivals against ``K`` independent manager groups.
Memory stays O(population) in flat numeric arrays — principal names
exist only arithmetically (``u<i>``), interned to dense ints everywhere
hot — and the harmonic sampler keeps the workload itself O(1).

Run it as ``repro-experiments mega`` (see :func:`main`); the CI
population-smoke job runs the 10^5 configuration, the 10^6
configuration is a local soak.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from ..argtypes import fraction, positive
from ..core.policy import AccessPolicy
from ..core.acl import AclBatch
from ..core.ids import NameRange
from ..core.rights import Right
from ..core.system import AccessControlSystem
from .generators import AccessWorkload, AuthorizationOracle, UpdateWorkload
from .population import DiurnalRate, UserPopulation

__all__ = ["ThresholdOracle", "run_mega_cell", "main"]


class ThresholdOracle(AuthorizationOracle):
    """Ground truth over a mega population in O(updates) memory.

    The initial authorization set is ``uid < granted`` — a pure
    predicate, nothing stored.  Only users the update workload touches
    get an override entry, so memory is proportional to update traffic,
    never to the population.  Serves one application: the
    ``application`` argument is ignored except as the key of the
    inherited revocation record behind ``in_grace``/``violation``.
    """

    def __init__(
        self, expiry_bound: float, population: UserPopulation, granted: int
    ):
        if not 0 <= granted <= len(population):
            raise ValueError("granted must be within the population")
        super().__init__(expiry_bound)
        self._population = population
        self._granted_below = granted
        self._count = granted
        self._overrides: Dict[str, bool] = {}

    def is_authorized(self, application: str, user: str) -> bool:
        override = self._overrides.get(user)
        if override is not None:
            return override
        try:
            return self._population.index_of(user) < self._granted_below
        except ValueError:
            return False

    def authorized_count(self, application: str) -> int:
        """O(1) — the update workload's fast path."""
        return self._count

    def grant(self, application: str, user: str) -> None:
        if not self.is_authorized(application, user):
            self._count += 1
        self._overrides[user] = True
        self._revoked_at.pop((application, user), None)

    def revoke(self, application: str, user: str, time: float) -> None:
        if self.is_authorized(application, user):
            self._count -= 1
        self._overrides[user] = False
        self._revoked_at[(application, user)] = time


def _seed_threshold(
    system: AccessControlSystem,
    application: str,
    population: UserPopulation,
    granted: int,
) -> None:
    """Install ``uid < granted`` as completed grants on the owning group.

    One :class:`AclBatch` per application, loaded by each manager's
    ``bootstrap``: its users are a :class:`NameRange` the population's
    dense interner maps to ids without formatting a name, and no
    per-grant trace record is emitted (``seed_grant`` would emit a
    million).
    """
    # bytes(granted): every right index is 0, Right.USE.
    batch = AclBatch.seeds(NameRange(population.prefix, granted), bytes(granted))
    for manager in system.managers_for(application):
        manager.bootstrap(application, batch)
    # One range record stands in for `granted` per-user GRANT_SEEDED
    # records; the te_bound oracle expands it lazily per accessed user.
    from ..sim.trace import TraceKind

    tracer = system.tracer
    if tracer.wants(TraceKind.GRANT_SEEDED):
        tracer.publish(
            TraceKind.GRANT_SEEDED,
            "system",
            application=application,
            user_prefix=population.prefix,
            seeded_below=granted,
            right=str(Right.USE),
        )
    else:
        tracer.bump(TraceKind.GRANT_SEEDED)


def run_mega_cell(
    n_principals: int = 100_000,
    shards: int = 4,
    n_managers: int = 3,
    n_hosts: int = 4,
    n_apps: int = 4,
    duration: float = 200.0,
    access_rate: float = 40.0,
    update_rate: float = 0.2,
    granted_fraction: float = 0.6,
    zipf_s: float = 1.0,
    diurnal: bool = True,
    seed: int = 0,
    check_invariants: Optional[bool] = None,
) -> Dict[str, Any]:
    """Build, seed and drive the sharded mega-population system.

    Returns a flat result document (counts, per-shard load, memory and
    wall-clock diagnostics) suitable for JSON dumping.  ``acl_bytes`` is
    what the ACLs' columns and indexes hold (``nbytes``); ``peak_rss_mb``
    is the process's peak resident set, so it covers earlier work in the
    same process too.
    """
    if n_principals < 1:
        raise ValueError("need at least one principal")
    if n_apps < 1:
        raise ValueError("need at least one application")
    if not 0.0 <= granted_fraction <= 1.0:
        raise ValueError("granted_fraction must be in [0, 1]")
    wall_start = time.perf_counter()
    population = UserPopulation(n_principals, zipf_s=zipf_s, sampler="harmonic")
    applications = tuple(f"svc{i}" for i in range(n_apps))
    policy = AccessPolicy(
        check_quorum=min(2, n_managers), expiry_bound=120.0, max_attempts=2,
        query_timeout=2.0,
    )
    system = AccessControlSystem(
        n_managers=n_managers,
        n_hosts=n_hosts,
        applications=applications,
        policy=policy,
        shards=shards,
        interner=population.interner(),
        seed=seed,
        check_invariants=check_invariants,
    )
    granted = int(n_principals * granted_fraction)
    for application in applications:
        _seed_threshold(system, application, population, granted)
    seed_elapsed = time.perf_counter() - wall_start

    rate_per_app = access_rate / n_apps
    profile = (
        DiurnalRate(base=rate_per_app, amplitude=0.8, period=duration)
        if diurnal
        else rate_per_app
    )
    oracles = {
        application: ThresholdOracle(policy.expiry_bound, population, granted)
        for application in applications
    }
    counts = {"attempts": 0, "allowed": 0, "denied": 0, "violations": 0}
    by_shard: Dict[int, int] = {}

    def observe(obs) -> None:
        counts["attempts"] += 1
        shard = system.group_index_for(obs.application)
        by_shard[shard] = by_shard.get(shard, 0) + 1
        if obs.decision.allowed:
            counts["allowed"] += 1
            if oracles[obs.application].violation(
                obs.application, obs.user, obs.time
            ):
                counts["violations"] += 1
        else:
            counts["denied"] += 1

    workloads: List[AccessWorkload] = []
    for index, application in enumerate(applications):
        workloads.append(
            AccessWorkload(
                system,
                application,
                population,
                oracles[application],
                rate=profile,
                rng=system.streams.stream(f"mega-access-{index}"),
                on_decision=observe,
            )
        )
        if update_rate > 0:
            UpdateWorkload(
                system,
                application,
                population,
                oracles[application],
                rate=update_rate / n_apps,
                rng=system.streams.stream(f"mega-update-{index}"),
                managers=system.managers_for(application),
            )
    system.run(until=duration)
    wall_elapsed = time.perf_counter() - wall_start

    acl_bytes = sum(
        manager.acl(app).nbytes()
        for app in applications
        for manager in system.managers_for(app)
    )
    interned_extras = len(system.interner) - n_principals
    document: Dict[str, Any] = {
        "n_principals": n_principals,
        "shards": shards,
        "n_managers": n_managers,
        "n_hosts": n_hosts,
        "applications": len(applications),
        "granted": granted,
        "duration": duration,
        "sampler": population.sampler,
        "diurnal": bool(diurnal),
        "seed": seed,
        "attempts": counts["attempts"],
        "allowed": counts["allowed"],
        "denied": counts["denied"],
        "violations": counts["violations"],
        "attempts_by_shard": {
            str(shard): by_shard.get(shard, 0) for shard in range(shards)
        },
        "acl_bytes": acl_bytes,
        "acl_bytes_per_entry": (
            round(acl_bytes / (granted * n_managers * len(applications)), 2)
            if granted
            else 0.0
        ),
        "interned_extras": interned_extras,
        "seed_seconds": round(seed_elapsed, 3),
        "wall_seconds": round(wall_elapsed, 3),
    }
    if system.checker is not None:
        document["invariant_violations"] = len(system.checker.finalize())
    # ru_maxrss is in KiB on Linux.
    document["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )
    return document


def main(argv: Optional[List[str]] = None) -> int:
    """The ``repro-experiments mega`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments mega",
        description=(
            "Drive the sharded mega-population cell: Zipf + diurnal "
            "arrivals over 10^5-10^6 interned principals."
        ),
    )
    parser.add_argument("--principals", type=positive(int), default=100_000)
    parser.add_argument("--shards", type=positive(int), default=4)
    parser.add_argument("--managers", type=positive(int), default=3,
                        help="managers per group")
    parser.add_argument("--hosts", type=positive(int), default=4)
    parser.add_argument("--apps", type=positive(int), default=4)
    parser.add_argument("--duration", type=positive(float), default=200.0,
                        help="simulated seconds")
    parser.add_argument("--rate", type=positive(float), default=40.0,
                        help="aggregate access rate (1/s)")
    parser.add_argument("--update-rate", type=float, default=0.2)
    parser.add_argument("--granted-fraction", type=fraction, default=0.6)
    parser.add_argument("--zipf", type=float, default=1.0)
    parser.add_argument("--flat", action="store_true",
                        help="disable the diurnal profile")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check-invariants", action="store_true")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the result document to FILE")
    parser.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                        help="fail if wall-clock exceeds this (CI smoke gate)")
    args = parser.parse_args(argv)

    document = run_mega_cell(
        n_principals=args.principals,
        shards=args.shards,
        n_managers=args.managers,
        n_hosts=args.hosts,
        n_apps=args.apps,
        duration=args.duration,
        access_rate=args.rate,
        update_rate=args.update_rate,
        granted_fraction=args.granted_fraction,
        zipf_s=args.zipf,
        diurnal=not args.flat,
        seed=args.seed,
        check_invariants=True if args.check_invariants else None,
    )
    for key in (
        "n_principals", "shards", "granted", "attempts", "allowed", "denied",
        "violations", "acl_bytes", "acl_bytes_per_entry", "interned_extras",
        "seed_seconds", "wall_seconds", "peak_rss_mb",
    ):
        print(f"{key}: {document[key]}")
    print(f"attempts_by_shard: {document['attempts_by_shard']}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result written to {args.json}")
    if document["violations"]:
        print("SECURITY VIOLATIONS OBSERVED", file=sys.stderr)
        return 1
    if document.get("invariant_violations"):
        print("INVARIANT VIOLATIONS OBSERVED", file=sys.stderr)
        return 1
    if args.budget is not None and document["wall_seconds"] > args.budget:
        print(
            f"wall-clock budget exceeded: {document['wall_seconds']}s "
            f"> {args.budget}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
