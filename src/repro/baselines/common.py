"""The substrate every baseline system is built on.

Every baseline exposes the same duck-typed surface as
:class:`repro.core.AccessControlSystem` — ``env``, ``streams``,
``tracer``, ``hosts`` (with ``probe_access``/``check_access``), ``managers`` (with
``add``/``revoke``), ``seed_grant``, ``run`` — so the same workloads
and metrics drive all of them and the comparison benches are
apples-to-apples.  The mechanisms behind that surface exist here once:

* :class:`BaselineManager` — the issue path (``add``/``revoke`` stamp a
  hybrid-logical-clock :class:`~repro.core.messages.AclUpdate`, apply
  it and trace it) and the answer to a ``QueryRequest`` from the local
  ACL.  A baseline adds only its follow-up to an issued update, its
  answer's ``te`` and what it records about a grant it hands out.
* :class:`BaselineHost` — the two-phase ``probe_access``/``check_access``
  entry, the attempt/backoff loop
  around one query round on the shared
  :class:`~repro.protocols.messaging.ReplyTable`, and the one place a
  decision is traced, counted and built.  A baseline host keeps only
  its own state (replica, forever-cache, leases) and says which
  managers a round asks.
* :class:`BaselineSystem` — environment, network, registration and
  seeding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import rights
from ..core.acl import AccessControlList
from ..core.cellspec import CellSpec
from ..core.host import AccessDecision, DecisionReason
from ..core.messages import AclUpdate, QueryRequest, QueryResponse, Verdict
from ..core.rights import SEED_ORIGIN, AclEntry, Right, Version
from ..protocols.messaging import ReplyTable, wait_reply
from ..sim.clock import LocalClock
from ..sim.engine import Environment
from ..sim.network import LatencyModel, Network, ShiftedExponentialLatency
from ..sim.node import Address, Node
from ..sim.partitions import ConnectivityModel, FullConnectivity
from ..sim.rng import RngStreams
from ..sim.trace import TraceKind, Tracer

__all__ = ["BaselineSystem", "SEED_ORIGIN"]

#: Host-side query settings, the same for every baseline host and for
#: the paper's protocol in the ``baselines`` experiment.
QUERY_TIMEOUT = 1.0
MAX_ATTEMPTS = 3
RETRY_BACKOFF = 1.0

#: A decision from a host's own state: (allowed, reason, trace reason).
LocalDecision = Tuple[bool, str, str]


class BaselineManager(Node):
    """One baseline manager: a local ACL per application.

    ``add``/``revoke`` always return the issued :class:`AclUpdate`;
    subclasses act on it in :meth:`_issued`.  A ``QueryRequest`` is
    answered from the local ACL with the subclass's ``te``.
    """

    #: Cache lifetime a query answer carries (set by each subclass).
    te: float

    def __init__(
        self,
        address: Address,
        applications: Sequence[str],
        acls: Optional[Dict[str, AccessControlList]] = None,
    ):
        super().__init__(address)
        self.acls: Dict[str, AccessControlList] = (
            acls if acls is not None
            else {app: AccessControlList(app) for app in applications}
        )
        self._counter = 0
        self.recovering = False  # workload-compatibility flag

    def add(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=True)

    def revoke(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=False)

    def _issue(self, application: str, user: str, right: Right,
               grant: bool) -> AclUpdate:
        current = self.acls[application].version_of(user, right)
        self._counter = rights.hlc_counter(
            self.env.now, max(self._counter, current.counter)
        )
        update = AclUpdate(
            update_id=f"{self.address}:{self._counter}",
            application=application,
            user=user,
            right=right,
            grant=grant,
            version=Version(self._counter, self.address),
            origin=self.address,
        )
        self.acls[application].apply(update.entry())
        self.network.tracer.publish(
            TraceKind.UPDATE_ISSUED, self.address,
            application=application, user=user, grant=grant,
            update_id=update.update_id,
        )
        self._issued(update)
        return update

    def _issued(self, update: AclUpdate) -> None:
        """Follow-up to a locally issued update (none by default)."""

    def _granted(self, src: Address, query: QueryRequest) -> None:
        """Record that ``src`` was just told ``query`` is granted."""

    handlers = {QueryRequest: "_answer_query"}

    def _answer_query(self, src: Address, query: QueryRequest) -> None:
        acl = self.acls.get(query.application)
        if acl is None:
            return
        granted, version = acl.lookup(query.user, query.right)
        if granted:
            self._granted(src, query)
        self.send(
            src,
            QueryResponse(
                query_id=query.query_id,
                application=query.application,
                user=query.user,
                right=query.right,
                verdict=Verdict.GRANT if granted else Verdict.DENY,
                te=self.te,
                version=version,
                manager=self.address,
            ),
        )


class BaselineHost(Node):
    """One baseline host: the check loop every baseline shares.

    A check first asks :meth:`_local` for a decision from the host's own
    state.  Otherwise it runs up to :data:`MAX_ATTEMPTS` query rounds,
    :data:`RETRY_BACKOFF` apart; a round asks :meth:`_targets` and
    succeeds once every target has answered within
    :data:`QUERY_TIMEOUT`.  The highest-versioned answer decides, and
    :meth:`_remember` lets the host keep what it learned.
    """

    #: Trace reason for a decision a query round made.
    round_reason = "verified"
    #: The host's local clock; a perfect one unless a subclass sets it.
    clock: Optional[LocalClock] = None

    def __init__(self, address: Address, managers: Sequence[Address]):
        super().__init__(address)
        self.managers = tuple(managers)
        self._pending = ReplyTable()
        self.stats = {"checks": 0, "allowed": 0, "denied": 0}

    def attach(self, network) -> None:
        super().attach(network)
        if self.clock is None:
            self.clock = LocalClock(self.env)

    def probe_access(self, application: str, user: str,
                     right: Right = Right.USE) -> Optional[AccessDecision]:
        """First phase of a check: the decision :meth:`_local` makes, or
        None, when the caller continues with ``check_access(...,
        missed=True)`` at this instant.  Schedules nothing."""
        self.stats["checks"] += 1
        local = self._local(application, user, right)
        if local is None:
            return None
        allowed, reason, trace_reason = local
        return self._decide(application, user, right, allowed, reason,
                            trace_reason, 0, 0, self.env.now)

    def check_access(self, application: str, user: str, right: Right = Right.USE,
                     missed: bool = False):
        """Process generator deciding one check; ``missed`` says
        :meth:`probe_access` already found no local decision."""
        if not missed:
            decision = self.probe_access(application, user, right)
            if decision is not None:
                return decision
        start = self.env.now
        attempts = 0
        while attempts < MAX_ATTEMPTS:
            attempts += 1
            sent_local = self.clock.now()
            replies = yield from self._query_round(
                self._targets(attempts), application, user, right
            )
            if replies is not None:
                best = max(replies, key=lambda reply: reply.version)
                allowed = best.verdict == Verdict.GRANT
                self._remember(application, user, right, best, sent_local)
                return self._decide(
                    application, user, right, allowed,
                    DecisionReason.VERIFIED if allowed else DecisionReason.DENIED,
                    self.round_reason, attempts, len(replies), start,
                )
            if attempts < MAX_ATTEMPTS:
                yield self.env.timeout(RETRY_BACKOFF)
        return self._decide(application, user, right, False,
                            DecisionReason.EXHAUSTED, "exhausted", attempts, 0, start)

    def _local(self, application: str, user: str, right: Right) -> Optional[LocalDecision]:
        """A decision from the host's own state, or None to ask managers."""
        return None

    def _targets(self, attempt: int) -> Sequence[Address]:
        """The managers round ``attempt`` asks: one, rotating."""
        return (self.managers[(attempt - 1) % len(self.managers)],)

    def _remember(self, application: str, user: str, right: Right,
                  reply: QueryResponse, sent_local: float) -> None:
        """Keep what a deciding ``reply`` taught (nothing by default)."""

    def _query_round(self, targets: Sequence[Address], application: str,
                     user: str, right: Right):
        """Ask every target; their replies, or None if the timer won."""
        replies: List[QueryResponse] = []
        done = self.env.event()

        def on_reply(reply: QueryResponse) -> None:
            replies.append(reply)
            if len(replies) >= len(targets) and not done.triggered:
                done.succeed()

        query_ids = []
        for manager in targets:
            query_id = self._pending.allocate(on_reply)
            query_ids.append(query_id)
            self.send(
                manager,
                QueryRequest(
                    query_id=query_id, application=application, user=user,
                    right=right,
                ),
            )
        yield from wait_reply(self.env, done, QUERY_TIMEOUT)
        for query_id in query_ids:
            self._pending.discard(query_id)
        return replies if len(replies) >= len(targets) else None

    def _decide(self, application: str, user: str, right: Right, allowed: bool,
                reason: str, trace_reason: str, attempts: int, responses: int,
                start: float) -> AccessDecision:
        """Count, trace and build one decision."""
        latency = self.env.now - start
        self.stats["allowed" if allowed else "denied"] += 1
        if reason == DecisionReason.EXHAUSTED:
            kind = TraceKind.ACCESS_UNRESOLVED
        else:
            kind = TraceKind.ACCESS_ALLOWED if allowed else TraceKind.ACCESS_DENIED
        self.network.tracer.publish(
            kind, self.address, application=application, user=user,
            reason=trace_reason, attempts=attempts, latency=latency,
        )
        return AccessDecision(
            application=application, user=user, right=right, allowed=allowed,
            reason=reason, attempts=attempts, responses=responses,
            latency=latency,
        )

    handlers = {QueryResponse: "_on_response"}

    def _on_response(self, src: Address, response: QueryResponse) -> None:
        self._pending.dispatch(response.query_id, response)

    def on_crash(self) -> None:
        self._pending.clear()


class BaselineSystem:
    """Environment + network scaffolding shared by all baselines.

    Subclasses build their manager and host nodes in ``_build``; this
    class registers them (managers first) and seeds grants into every
    manager's ACL.
    """

    def __init__(
        self,
        n_managers: int,
        n_hosts: int,
        applications: Sequence[str] = ("app",),
        connectivity: Optional[ConnectivityModel] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        if n_managers < 1:
            raise ValueError("need at least one manager")
        self.applications = tuple(applications)
        self.streams = RngStreams(seed)
        self.env = Environment()
        self.tracer = Tracer(self.env)
        self.network = Network(
            self.env,
            connectivity=connectivity or FullConnectivity(),
            latency=latency or ShiftedExponentialLatency(),
            tracer=self.tracer,
            rng=self.streams.stream("network"),
        )
        (self.manager_addrs,), host_addrs = CellSpec.names(n_managers, n_hosts)
        managers, hosts = self._build(host_addrs)
        for node in (*managers, *hosts):
            self.network.register(node)
        self.managers: List = list(managers)
        self.hosts: List = list(hosts)

    def run(self, until: Optional[float] = None) -> None:
        self.env.run(until=until)

    def seed_grant(self, application: str, user: str,
                   right: Right = Right.USE) -> None:
        """Install a fully propagated grant before time zero."""
        entry = AclEntry(
            user=user, right=right, granted=True, version=Version(1, SEED_ORIGIN)
        )
        self._seed_entry(application, entry)

    def seed_grants(self, application: str, users, right: Right = Right.USE) -> None:
        for user in users:
            self.seed_grant(application, user, right)

    def _seed_entry(self, application: str, entry: AclEntry) -> None:
        # A pre-existing right is known everywhere, as if issued at
        # every manager long ago.
        for manager in self.managers:
            manager.acls[application].apply(entry)
