"""Baseline 2: updates stay local to the issuing manager.

Section 3's third design option: "only change the information locally
at the manager issuing the update operation, in which case checking
access would in general involve communicating with all managers to
locate the information."

Semantics implemented here:

* A manager applies Add/Revoke to its own ACL only — zero update
  traffic, updates are "effective" instantly at the origin.
* An application host must hear from **all M managers** to decide: any
  one of them may hold the latest (possibly revoking) operation, and
  version comparison picks the winner.  No caching (the paper's option
  lists none; caching is the paper's own contribution).
* Consequence measured by the ``baselines`` experiment: every access costs
  ``2M`` messages, and a single unreachable manager blocks *all*
  decisions (terrible availability under partitions).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Sequence

from ..core.acl import AccessControlList
from ..core.host import AccessDecision, DecisionReason
from ..core.messages import AclUpdate, QueryRequest, QueryResponse, Verdict
from ..core.rights import Right, Version, hlc_counter
from ..sim.node import Address, Node
from ..sim.trace import TraceKind
from .common import BaselineSystem

__all__ = ["LocalOnlyManager", "LocalOnlyHost", "LocalOnlySystem"]


class LocalOnlyManager(Node):
    """Keeps its own updates; answers queries from local state only."""

    def __init__(self, address: Address, applications: Sequence[str]):
        super().__init__(address)
        self.acls: Dict[str, AccessControlList] = {
            app: AccessControlList(app) for app in applications
        }
        self._counter = 0
        self.recovering = False

    def add(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=True)

    def revoke(self, application: str, user: str, right: Right = Right.USE):
        return self._issue(application, user, right, grant=False)

    def _issue(self, application: str, user: str, right: Right, grant: bool):
        current = self.acls[application].version_of(user, right)
        self._counter = hlc_counter(
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
        return update

    def handle_message(self, src: Address, message: Any) -> None:
        if isinstance(message, QueryRequest):
            acl = self.acls.get(message.application)
            if acl is None:
                return
            entry = acl.entry(message.user, message.right)
            granted = entry is not None and entry.granted
            self.send(
                src,
                QueryResponse(
                    query_id=message.query_id,
                    application=message.application,
                    user=message.user,
                    right=message.right,
                    verdict=Verdict.GRANT if granted else Verdict.DENY,
                    te=0.0,
                    version=acl.version_of(message.user, message.right),
                    manager=self.address,
                ),
            )


class LocalOnlyHost(Node):
    """Must gather responses from every manager for each access."""

    def __init__(
        self,
        address: Address,
        managers: Sequence[Address],
        query_timeout: float = 1.0,
        max_attempts: int = 3,
        retry_backoff: float = 1.0,
    ):
        super().__init__(address)
        self.managers = tuple(managers)
        self.query_timeout = query_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self._query_ids = itertools.count(1)
        self._pending: Dict[int, Callable[[QueryResponse], None]] = {}
        self.stats = {"checks": 0, "allowed": 0, "denied": 0}

    def check_access(self, application: str, user: str, right: Right = Right.USE):
        self.stats["checks"] += 1
        start = self.env.now
        needed = len(self.managers)
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            responses: List[QueryResponse] = []
            done = self.env.event()
            qids = []

            def on_response(response: QueryResponse) -> None:
                responses.append(response)
                if len(responses) >= needed and not done.triggered:
                    done.succeed()

            for manager in self.managers:
                qid = next(self._query_ids)
                qids.append(qid)
                self._pending[qid] = on_response
                self.send(
                    manager,
                    QueryRequest(
                        query_id=qid, application=application, user=user, right=right
                    ),
                )
            timer = self.env.timeout(self.query_timeout)
            yield self.env.any_of([done, timer])
            for qid in qids:
                self._pending.pop(qid, None)
            if len(responses) >= needed:
                best = max(responses, key=lambda r: r.version)
                allowed = best.verdict == Verdict.GRANT
                self.stats["allowed" if allowed else "denied"] += 1
                kind = (
                    TraceKind.ACCESS_ALLOWED if allowed else TraceKind.ACCESS_DENIED
                )
                self.network.tracer.publish(
                    kind, self.address, application=application, user=user,
                    reason="all_managers", attempts=attempts,
                    latency=self.env.now - start,
                )
                return AccessDecision(
                    application=application,
                    user=user,
                    right=right,
                    allowed=allowed,
                    reason=(
                        DecisionReason.VERIFIED if allowed else DecisionReason.DENIED
                    ),
                    attempts=attempts,
                    responses=len(responses),
                    latency=self.env.now - start,
                )
            if attempts < self.max_attempts:
                yield self.env.timeout(self.retry_backoff)
        self.stats["denied"] += 1
        self.network.tracer.publish(
            TraceKind.ACCESS_UNRESOLVED, self.address,
            application=application, user=user, reason="exhausted",
            attempts=attempts, latency=self.env.now - start,
        )
        return AccessDecision(
            application=application,
            user=user,
            right=right,
            allowed=False,
            reason=DecisionReason.EXHAUSTED,
            attempts=attempts,
            responses=0,
            latency=self.env.now - start,
        )

    def request_access(self, application: str, user: str, right: Right = Right.USE):
        return self.env.process(self.check_access(application, user, right))

    def handle_message(self, src: Address, message: Any) -> None:
        if isinstance(message, QueryResponse):
            callback = self._pending.pop(message.query_id, None)
            if callback is not None:
                callback(message)

    def on_crash(self) -> None:
        self._pending.clear()


class LocalOnlySystem(BaselineSystem):
    """A wired local-only deployment."""

    def _build(self, n_managers: int, n_hosts: int) -> None:
        for addr in self.manager_addrs:
            manager = LocalOnlyManager(addr, self.applications)
            self.network.register(manager)
            self.managers.append(manager)
        for i in range(n_hosts):
            host = LocalOnlyHost(f"h{i}", self.manager_addrs)
            self.network.register(host)
            self.hosts.append(host)

    def _seed_entry(self, application: str, entry) -> None:
        # A pre-existing right is known everywhere, as if issued at
        # every manager long ago.
        for manager in self.managers:
            manager.acls[application].apply(entry)
