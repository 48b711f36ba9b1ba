"""Online protocol-invariant oracles.

The paper's central claims are *invariants*, not point measurements:

* **Te-bounded revocation** (Section 3.2, Figure 3) — once a
  revocation is guaranteed (its update quorum is reached; for the
  freeze strategy, once it is issued), no access for that user is
  allowed more than ``Te`` later.
* **Expiry stamping** (Figure 3) — a cached grant's limit is
  ``Time() + te - delta``: the entry may never live longer than ``te``
  local units past the moment its deciding query round *started*.
* **Freeze-window safety** (Section 3.3) — ``Ti + b * te <= Te``.
* **Quorum intersection** (Section 3.3) — every update quorum
  (``M - C + 1`` acks) intersects every check quorum (``C``
  responses), and both sides actually collect that many.
* **No access from an expired cache entry** (Figure 3's ``lookup``).
* **Convergence** (Section 3.4) — after partitions heal and traffic
  quiesces, manager ACL replicas agree and host caches hold only
  currently-granted rights.

Each oracle subscribes to the existing :class:`repro.sim.trace.Tracer`
vocabulary through an :class:`InvariantChecker` hub; a broken invariant
produces a structured :class:`InvariantViolation` carrying the
offending trace slice.  Checking consumes no randomness, so attaching a
checker never perturbs a seeded run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..core.ids import dense_index
from ..core.policy import AccessPolicy, DeltaMode, QueryStrategy
from ..sim.trace import TraceKind, TraceRecord

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "Invariant",
    "TeBoundInvariant",
    "FreezeWindowInvariant",
    "QuorumIntersectionInvariant",
    "CacheExpiryInvariant",
    "ConvergenceInvariant",
]

#: Numerical slack for float comparisons on simulated-time bounds.
EPS = 1e-6


def _record_dict(record: TraceRecord) -> Dict[str, Any]:
    """A JSON-friendly rendering of one trace record."""
    data = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in record.data.items()
    }
    return {
        "time": record.time,
        "kind": record.kind,
        "source": record.source,
        "data": data,
    }


class InvariantViolation(AssertionError):
    """A protocol invariant broke.

    Attributes
    ----------
    invariant:
        Name of the oracle that fired (``te_bound``, ``cache_expiry``,
        ``quorum_intersection``, ``freeze_window``, ``convergence``).
    time:
        Simulated time of detection.
    message:
        Human-readable statement of what broke.
    details:
        Structured key/value context (user, limits, deadlines...).
    trace:
        The trailing window of subscribed trace records, as dicts —
        the offending trace slice.
    """

    def __init__(
        self,
        invariant: str,
        time: float,
        message: str,
        details: Optional[Dict[str, Any]] = None,
        trace: Optional[List[Dict[str, Any]]] = None,
    ):
        super().__init__(f"[{invariant}] t={time:.3f}: {message}")
        self.invariant = invariant
        self.time = time
        self.message = message
        self.details = dict(details or {})
        self.trace = list(trace or [])

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (what fuzz failure reports serialize)."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
            "details": self.details,
            "trace": self.trace,
        }


class Invariant:
    """Base class for one oracle.

    ``kinds()`` names the trace kinds the oracle consumes; ``on_record``
    is called for each; ``check_static`` runs once per application the
    moment it first appears in the trace; ``finalize`` runs at
    end-of-run (after the harness has healed the network and drained).
    """

    name = "invariant"

    def __init__(self, checker: "InvariantChecker"):
        self.checker = checker

    def kinds(self) -> Tuple[str, ...]:
        return ()

    def check_static(self, application: str, policy: AccessPolicy) -> None:
        pass

    def finalize(self) -> None:
        pass

    def report(self, record: Optional[TraceRecord], message: str, **details: Any) -> None:
        self.checker.report(self.name, record, message, **details)


class TeBoundInvariant(Invariant):
    """Figure 3's revocation guarantee, in two layers.

    *Semantic layer*: mirror the authoritative ACL's last-writer-wins
    state from ``update_issued``/``grant_seeded`` records.  When the
    winning operation for ``(app, user, right)`` is a revocation, any
    allowed access (via cache or a fresh verify; Figure 4
    default-allows are an explicit availability escape hatch and are
    skipped) must happen before the revocation's *guarantee point* plus
    ``Te``.  For the quorum strategy the guarantee point is the update
    quorum ("the first point at which a guarantee can be made about an
    operation"): every later check quorum intersects it, so a stale
    all-grant round must have started before the quorum — entries it
    caches die within ``Te`` of that start.  For the freeze strategy a
    manager that unfreezes learns missed updates only from the issuer's
    retry loop, so the sound deadline is keyed to the moment the
    revocation finished propagating to *all* managers: no stale verdict
    can be formed after that, and an entry cached from the last stale
    round dies within ``Te - Ti`` of it.  A slack of one query round
    covers rounds already in flight at either guarantee point.

    *Stamp layer*: every ``cache_stored`` record must obey
    ``limit <= Time_at_send + te`` (plus half the round trip when the
    policy uses :class:`DeltaMode.HALF_ROUND_TRIP`), i.e. the ``delta``
    subtraction actually happened, and the granted ``te`` never exceeds
    the policy's ``te_local`` budget.  This is the unit-level Figure 3
    conformance check that catches an expiry bug on the first store.
    """

    name = "te_bound"

    def __init__(self, checker: "InvariantChecker"):
        super().__init__(checker)
        # (app, user, right) -> (version, grant, issue_time, update_id)
        self._latest: Dict[Tuple[str, str, str], Tuple[Tuple[int, str], bool, float, Optional[str]]] = {}
        # update_id -> real time its update quorum was reached
        self._quorum_at: Dict[str, float] = {}
        # update_id -> real time every manager had applied it
        self._propagated_at: Dict[str, float] = {}
        # app -> (prefix, n, seed_time): mega-scale bulk seeds announce
        # "users prefix0..prefix{n-1} hold Version(1, '') grants" as one
        # record; individual entries materialise lazily on first access.
        self._seed_ranges: Dict[str, Tuple[str, int, float]] = {}

    def kinds(self) -> Tuple[str, ...]:
        return (
            TraceKind.GRANT_SEEDED,
            TraceKind.UPDATE_ISSUED,
            TraceKind.UPDATE_QUORUM_REACHED,
            TraceKind.UPDATE_FULLY_PROPAGATED,
            TraceKind.ACCESS_ALLOWED,
            TraceKind.CACHE_STORED,
        )

    # -- bookkeeping --------------------------------------------------------
    def _apply_op(
        self,
        key: Tuple[str, str, str],
        version: Tuple[int, str],
        grant: bool,
        time: float,
        update_id: Optional[str],
    ) -> None:
        current = self._latest.get(key)
        if current is None or version > current[0]:
            self._latest[key] = (version, grant, time, update_id)

    def on_record(self, record: TraceRecord) -> None:
        kind, data = record.kind, record.data
        if kind == TraceKind.GRANT_SEEDED:
            if "seeded_below" in data:
                # Bulk threshold seed: one record for a whole uid range.
                self._seed_ranges[data["application"]] = (
                    data.get("user_prefix", "u"),
                    data["seeded_below"],
                    record.time,
                )
                return
            key = (data["application"], data["user"], data.get("right", "use"))
            # seed_grant installs Version(1, "") on every manager.
            self._apply_op(key, (1, ""), True, record.time, None)
        elif kind == TraceKind.UPDATE_ISSUED:
            key = (data["application"], data["user"], data.get("right", "use"))
            version = tuple(data["version"])
            self._apply_op(key, version, data["grant"], record.time, data["update_id"])
        elif kind == TraceKind.UPDATE_QUORUM_REACHED:
            self._quorum_at.setdefault(data["update_id"], record.time)
        elif kind == TraceKind.UPDATE_FULLY_PROPAGATED:
            self._propagated_at.setdefault(data["update_id"], record.time)
        elif kind == TraceKind.ACCESS_ALLOWED:
            self._check_access(record)
        elif kind == TraceKind.CACHE_STORED:
            self._check_stamp(record)

    def _seeded_baseline(
        self, key: Tuple[str, str, str], application: str
    ) -> Optional[Tuple[Tuple[int, str], bool, float, Optional[str]]]:
        """Materialise a bulk-seeded grant for ``key`` if its uid falls
        inside the announced range (canonical decimal names only).
        Memoised into ``_latest`` so later protocol updates supersede
        it by ordinary version comparison; memory stays proportional to
        *accessed* users, never the population."""
        seeded = self._seed_ranges.get(application)
        if seeded is None:
            return None
        prefix, below, seed_time = seeded
        if not 0 <= dense_index(key[1], prefix) < below:
            return None
        entry = ((1, ""), True, seed_time, None)
        self._latest[key] = entry
        return entry

    # -- the semantic layer -------------------------------------------------
    def _round_slack(self, policy: AccessPolicy, m: int) -> float:
        """Longest a verification round already in flight at the
        guarantee point can take to complete: one query timeout per
        batch the strategy may walk (one manager at a time, all at once,
        or ``C`` first and then the rest)."""
        batches = {
            QueryStrategy.SEQUENTIAL: m,
            QueryStrategy.PARALLEL: 1,
            QueryStrategy.QUORUM: 2,
        }[policy.query_strategy]
        return policy.query_timeout * batches

    def _check_access(self, record: TraceRecord) -> None:
        data = record.data
        reason = data.get("reason")
        if reason not in ("cache", "verified"):
            return  # default-allow trades security for availability by design
        application = data["application"]
        key = (application, data["user"], data.get("right", "use"))
        latest = self._latest.get(key)
        if latest is None:
            latest = self._seeded_baseline(key, application)
        if latest is None:
            self.report(
                record,
                f"user {data['user']!r} was allowed ({reason}) but was never "
                f"granted {key[2]!r} on {application!r}",
                user=data["user"],
                application=application,
                reason=reason,
            )
            return
        version, grant, issued_at, update_id = latest
        if grant:
            return  # currently authorized
        policy = self.checker.policy(application)
        m = self.checker.n_managers(application)
        if policy.use_freeze:
            propagated_at = (
                self._propagated_at.get(update_id) if update_id else issued_at
            )
            if propagated_at is None:
                return  # some manager may still serve stale after it unfreezes
            deadline = max(
                issued_at + policy.expiry_bound,
                propagated_at
                + policy.expiry_bound
                - policy.inaccessibility_period,
            )
        else:
            quorum_at = self._quorum_at.get(update_id) if update_id else issued_at
            if quorum_at is None:
                return  # revocation not yet guaranteed: no bound to enforce
            deadline = quorum_at + policy.expiry_bound
        deadline += self._round_slack(policy, m) + EPS
        if record.time > deadline:
            self.report(
                record,
                f"access allowed ({reason}) for revoked user {data['user']!r} "
                f"{record.time - issued_at:.3f}s after revocation "
                f"(Te={policy.expiry_bound}, guarantee deadline "
                f"{deadline:.3f} < access {record.time:.3f})",
                user=data["user"],
                application=application,
                reason=reason,
                revoked_at=issued_at,
                deadline=deadline,
                overshoot=record.time - deadline,
            )

    # -- the stamp layer ----------------------------------------------------
    def _check_stamp(self, record: TraceRecord) -> None:
        data = record.data
        application = data["application"]
        policy = self.checker.policy(application)
        te = data["te"]
        send_local = data["send_local"]
        now_local = data["now_local"]
        limit = data["limit"]
        if te > policy.te_local + EPS:
            self.report(
                record,
                f"manager handed out te={te:.3f} above the policy budget "
                f"te_local={policy.te_local:.3f} (Te={policy.expiry_bound}, "
                f"b={policy.clock_bound})",
                te=te,
                te_local=policy.te_local,
            )
        elapsed = now_local - send_local
        bound = send_local + te
        if policy.delta_mode is DeltaMode.HALF_ROUND_TRIP:
            bound += elapsed / 2.0
        if limit > bound + EPS:
            self.report(
                record,
                f"cache entry for {data['user']!r} stamped limit={limit:.3f}, "
                f"which exceeds Time_at_send + te = {bound:.3f} by "
                f"{limit - bound:.3f} local units — the Figure 3 delta "
                f"subtraction is missing",
                user=data["user"],
                application=application,
                limit=limit,
                bound=bound,
                send_local=send_local,
                now_local=now_local,
                te=te,
            )


class FreezeWindowInvariant(Invariant):
    """Section 3.3: the freeze strategy is safe only while
    ``Ti + b * te <= Te`` — checked structurally per application —
    plus well-formedness of freeze/unfreeze transitions."""

    name = "freeze_window"

    def __init__(self, checker: "InvariantChecker"):
        super().__init__(checker)
        self._frozen: Dict[Tuple[str, str], bool] = {}

    def kinds(self) -> Tuple[str, ...]:
        return (TraceKind.MANAGER_FROZEN, TraceKind.MANAGER_UNFROZEN)

    def check_static(self, application: str, policy: AccessPolicy) -> None:
        if not policy.use_freeze:
            return
        budget = policy.inaccessibility_period + policy.clock_bound * policy.te_local
        if budget > policy.expiry_bound + EPS:
            self.report(
                None,
                f"freeze policy for {application!r} violates Ti + b*te <= Te: "
                f"{policy.inaccessibility_period} + {policy.clock_bound} * "
                f"{policy.te_local:.3f} = {budget:.3f} > {policy.expiry_bound}",
                application=application,
                ti=policy.inaccessibility_period,
                te_local=policy.te_local,
                expiry_bound=policy.expiry_bound,
            )

    def on_record(self, record: TraceRecord) -> None:
        key = (record.source, record.data["application"])
        frozen = record.kind == TraceKind.MANAGER_FROZEN
        if self._frozen.get(key, False) == frozen:
            self.report(
                record,
                f"manager {record.source!r} published "
                f"{'freeze' if frozen else 'unfreeze'} twice in a row for "
                f"{key[1]!r}",
                manager=record.source,
                application=key[1],
            )
        self._frozen[key] = frozen


class QuorumIntersectionInvariant(Invariant):
    """Section 3.3: update quorums (``M - C + 1``) and check quorums
    (``C``) must intersect, and both protocol sides must actually
    collect that many parties before proceeding."""

    name = "quorum_intersection"

    def kinds(self) -> Tuple[str, ...]:
        return (TraceKind.UPDATE_QUORUM_REACHED, TraceKind.ACCESS_ALLOWED)

    def check_static(self, application: str, policy: AccessPolicy) -> None:
        m = self.checker.n_managers(application)
        try:
            policy.validate_for(m)
        except ValueError as exc:
            self.report(
                None,
                f"policy for {application!r} is invalid for M={m}: {exc}",
                application=application,
            )
            return
        if not policy.use_freeze:
            update_quorum = policy.update_quorum(m)
            if policy.check_quorum + update_quorum != m + 1:
                self.report(
                    None,
                    f"quorums for {application!r} do not intersect: "
                    f"C={policy.check_quorum}, UQ={update_quorum}, M={m}",
                    application=application,
                )

    def on_record(self, record: TraceRecord) -> None:
        data = record.data
        application = data.get("application")
        if application is None:
            return
        policy = self.checker.policy(application)
        m = self.checker.n_managers(application)
        if record.kind == TraceKind.UPDATE_QUORUM_REACHED:
            needed = m if policy.use_freeze else policy.update_quorum(m)
            if data["acks"] < needed:
                self.report(
                    record,
                    f"update quorum declared with {data['acks']} acks, "
                    f"needs {needed} (M={m}, C={policy.check_quorum})",
                    acks=data["acks"],
                    needed=needed,
                    update_id=data.get("update_id"),
                )
        elif record.kind == TraceKind.ACCESS_ALLOWED:
            if data.get("reason") != "verified":
                return
            required = policy.required_responses(m)
            responses = data.get("responses")
            if responses is not None and responses < required:
                self.report(
                    record,
                    f"verified access decided on {responses} manager "
                    f"responses, check quorum requires {required}",
                    responses=responses,
                    required=required,
                    user=data.get("user"),
                )


class CacheExpiryInvariant(Invariant):
    """Figure 3's ``lookup``: a cache hit must come from an entry whose
    limit is still ahead of the host's local clock — no access is ever
    granted from an expired cache entry."""

    name = "cache_expiry"

    def kinds(self) -> Tuple[str, ...]:
        return (TraceKind.CACHE_HIT,)

    def on_record(self, record: TraceRecord) -> None:
        data = record.data
        limit = data.get("limit")
        now_local = data.get("now_local")
        if limit is None or now_local is None:
            return  # record from an older publisher without expiry data
        if now_local >= limit + EPS:
            self.report(
                record,
                f"host {record.source!r} served a cache hit for "
                f"{data.get('user')!r} from an entry expired "
                f"{now_local - limit:.3f} local units ago",
                user=data.get("user"),
                application=data.get("application"),
                limit=limit,
                now_local=now_local,
            )


class ConvergenceInvariant(Invariant):
    """Section 3.4 steady state: once partitions heal and updates
    drain, every live manager stores the same ACL and host caches hold
    only rights the converged ACL still grants.

    Purely a ``finalize`` check — the fuzz harness calls it after
    healing the network and running a drain period longer than ``Te``.
    """

    name = "convergence"

    def finalize(self) -> None:
        system = self.checker.system
        all_live = [m for m in system.managers if m.up and not m.recovering]
        for application in system.applications:
            # Under sharding only the owning group replicates this app;
            # convergence is a per-group property.
            live = [
                m
                for m in all_live
                if application in getattr(m, "acls", {application: None})
            ]
            if len(live) < 2:
                continue
            reference = live[0]
            ref_acl = reference.acl(application)
            for manager in live[1:]:
                # Entry by entry, never a whole ACL's objects at once: a
                # 10^6-principal ACL would hold hundreds of MB of them.
                acl = manager.acl(application)
                differing = sorted(
                    {str((e.user, e.right)) for e in ref_acl if acl.entry(e.user, e.right) != e}
                    | {str((e.user, e.right)) for e in acl if (e.user, e.right) not in ref_acl}
                )
                if differing:
                    self.report(
                        None,
                        f"manager ACLs for {application!r} did not converge: "
                        f"{manager.address!r} disagrees with "
                        f"{reference.address!r} on {differing[:5]}",
                        application=application,
                        managers=[reference.address, manager.address],
                        keys=differing[:20],
                    )
            for host in system.hosts:
                if not host.up:
                    continue
                cache = host.caches.get(application)
                if cache is None:
                    continue
                now_local = host.clock.now()
                for entry in cache.entries():
                    if entry.limit <= now_local:
                        continue  # expired, just not swept yet
                    if not ref_acl.check(entry.user, entry.right):
                        self.report(
                            None,
                            f"after drain, host {host.address!r} still caches "
                            f"a live grant for {entry.user!r} that the "
                            f"converged ACL denies",
                            host=host.address,
                            application=application,
                            user=entry.user,
                            limit=entry.limit,
                            now_local=now_local,
                        )


class InvariantChecker:
    """Hub that subscribes the oracle library to a system's tracer.

    Parameters
    ----------
    system:
        The :class:`~repro.core.system.AccessControlSystem` to watch.
    raise_on_violation:
        When True (the default, and what ``--check-invariants`` uses) a
        violation raises immediately, failing the run loudly.  The fuzz
        harness passes False and collects ``violations`` instead.
    trace_window:
        How many trailing subscribed records each violation captures as
        its offending trace slice.
    """

    def __init__(self, system, raise_on_violation: bool = True,
                 trace_window: int = 32):
        self.system = system
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self._recent: Deque[TraceRecord] = deque(maxlen=trace_window)
        self.invariants: List[Invariant] = [
            TeBoundInvariant(self),
            FreezeWindowInvariant(self),
            QuorumIntersectionInvariant(self),
            CacheExpiryInvariant(self),
            ConvergenceInvariant(self),
        ]
        self._handlers: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        for invariant in self.invariants:
            for kind in invariant.kinds():
                self._handlers.setdefault(kind, []).append(invariant.on_record)
        self._seen_apps: set = set()
        system.tracer.subscribe(tuple(self._handlers), self._on_record)
        for application in system.applications:
            self._run_static(application)

    # -- context the oracles need ------------------------------------------
    def policy(self, application: str) -> AccessPolicy:
        """The policy governing ``application`` (honouring overrides).

        Routed through the owning manager group when the system is
        sharded — policy overrides live only on the owning managers.
        """
        managers_for = getattr(self.system, "managers_for", None)
        managers = (
            managers_for(application) if managers_for else self.system.managers
        )
        return managers[0].policy_for(application)

    def n_managers(self, application: str) -> int:
        """``M`` for the group serving ``application``."""
        n_for = getattr(self.system, "n_managers_for", None)
        return n_for(application) if n_for else self.system.n_managers

    # -- record dispatch -----------------------------------------------------
    def _run_static(self, application: str) -> None:
        self._seen_apps.add(application)
        policy = self.policy(application)
        for invariant in self.invariants:
            invariant.check_static(application, policy)

    def _on_record(self, record: TraceRecord) -> None:
        self._recent.append(record)
        application = record.data.get("application")
        if application is not None and application not in self._seen_apps:
            self._run_static(application)
        for handler in self._handlers.get(record.kind, ()):
            handler(record)

    def report(
        self,
        invariant: str,
        record: Optional[TraceRecord],
        message: str,
        **details: Any,
    ) -> None:
        violation = InvariantViolation(
            invariant=invariant,
            time=record.time if record is not None else self.system.env.now,
            message=message,
            details=details,
            trace=[_record_dict(r) for r in self._recent],
        )
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def finalize(self) -> List[InvariantViolation]:
        """Run end-of-run checks; returns all violations collected."""
        for invariant in self.invariants:
            invariant.finalize()
        return list(self.violations)

    def __repr__(self) -> str:
        return (
            f"<InvariantChecker oracles={len(self.invariants)} "
            f"violations={len(self.violations)}>"
        )
