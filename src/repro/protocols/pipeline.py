"""The host-side verification pipeline (Figures 2, 3, and 4).

One :class:`VerificationPipeline` per host wires the strategy layers
together:

1. **cache lookup** — the Figure 3 fast path (plus the negative-cache
   extension);
2. **manager resolution** — :class:`~repro.protocols.resolver.
   ManagerResolver`;
3. **query rounds** — a :class:`~repro.protocols.planner.QueryPlanner`
   gathers responses, a :class:`~repro.protocols.combiner.
   ResponseCombiner` judges them, repeated up to ``R`` attempts;
4. **decision** — :class:`~repro.protocols.decision.DecisionPolicy`
   maps the outcome (verified / denied / Figure 4 default-allow /
   exhausted) to the final :class:`AccessDecision`, and
   :class:`~repro.protocols.decision.ExpiryStamper` stamps cached
   grants with ``Time() + te - delta``.

Strategies are selected per call from the application's
:class:`AccessPolicy` through the ``planner_factory`` /
``combiner_factory`` hooks; replacing a factory composes a new protocol
variant (e.g. weighted voting) without touching the host class.
"""

from __future__ import annotations

from typing import Callable

from ..core.cache import CacheEntry
from ..core.messages import Verdict
from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..sim.trace import TraceKind
from .combiner import ResponseCombiner, combiner_for
from .decision import AccessDecision, DecisionPolicy, DecisionReason, ExpiryStamper
from .planner import QueryPlanner, planner_for
from .resolver import ManagerResolver

__all__ = [
    "VerificationPipeline",
    "GRANT",
    "DENY",
    "UNRESOLVED",
    "CRASHED",
    "NO_MANAGERS",
]

# Verification outcomes, shared between pipeline and host.
GRANT, DENY, UNRESOLVED, CRASHED = "grant", "deny", "unresolved", "crashed"
NO_MANAGERS = "no_managers"


class VerificationPipeline:
    """Cache -> planner -> combiner -> decision, for one host."""

    def __init__(
        self,
        host,
        planner_factory: Callable[[AccessPolicy], QueryPlanner] = planner_for,
        combiner_factory: Callable[[AccessPolicy], ResponseCombiner] = combiner_for,
        resolver: ManagerResolver = None,
        decision_policy: DecisionPolicy = None,
        stamper: ExpiryStamper = None,
    ):
        self.host = host
        self.planner_factory = planner_factory
        self.combiner_factory = combiner_factory
        self.resolver = resolver or ManagerResolver()
        self.decision_policy = decision_policy or DecisionPolicy()
        self.stamper = stamper or ExpiryStamper()

    # -- the access check (Figures 2/3/4) ----------------------------------
    def probe(self, application: str, user: str, right: Right):
        """Synchronous first phase of one ``Invoke(A)``: Figure 3's
        ``ACL_cache`` lookup.

        Counts the check and traces the request and the cache outcome.
        On a live cached grant returns the recorded
        :class:`~repro.protocols.decision.AccessDecision`; on a miss or an
        expired entry returns ``None``, and the caller continues with
        ``check(..., missed=True)``.  No event is scheduled either way,
        so a caller that is not a process (the wrapper, inside message
        delivery) can decide a hit on the spot.
        """
        host = self.host
        tracer = host.tracer
        host.stats["checks"] += 1
        if tracer.wants(TraceKind.ACCESS_REQUESTED):
            tracer.publish(
                TraceKind.ACCESS_REQUESTED,
                host.address,
                application=application,
                user=user,
                right=str(right),
            )
        else:
            tracer.bump(TraceKind.ACCESS_REQUESTED)
        # ``cache.probe`` is the allocation-free lookup: no CacheLookup
        # object on the hot path, and unknown users never grow the
        # interner.
        cache = host.cache_for(application)
        now_local = host.clock.now()
        cached = cache.probe(user, right, now_local)
        if cached is not None:
            if tracer.wants(TraceKind.CACHE_HIT):
                tracer.publish(
                    TraceKind.CACHE_HIT,
                    host.address,
                    application=application,
                    user=user,
                    limit=cached.limit,
                    now_local=now_local,
                )
            else:
                tracer.bump(TraceKind.CACHE_HIT)
            return self._decide(
                application, user, right, True, DecisionReason.CACHE, 0, 0, 0.0
            )
        miss_kind = (
            TraceKind.CACHE_EXPIRED
            if cache.last_probe_expired
            else TraceKind.CACHE_MISS
        )
        if tracer.wants(miss_kind):
            tracer.publish(
                miss_kind,
                host.address,
                application=application,
                user=user,
            )
        else:
            tracer.bump(miss_kind)
        return None

    def _decide(
        self,
        application: str,
        user: str,
        right: Right,
        allowed: bool,
        reason: str,
        attempts: int,
        responses: int,
        latency: float,
    ):
        decision = AccessDecision(
            application=application,
            user=user,
            right=right,
            allowed=allowed,
            reason=reason,
            attempts=attempts,
            responses=responses,
            latency=latency,
        )
        self.decision_policy.record(self.host, decision)
        return decision

    def check(self, application: str, user: str, right: Right, missed: bool = False):
        """Process generator deciding one ``Invoke(A)``.

        Returns an :class:`~repro.protocols.decision.AccessDecision`.  ``missed``
        says the caller already ran :meth:`probe` for this request, at
        this instant, and it missed: the check continues from there
        instead of counting and tracing the request a second time.
        """
        if not missed:
            decision = self.probe(application, user, right)
            if decision is not None:
                return decision
        host = self.host
        policy = host.policy_for(application)
        start_real = host.env.now
        incarnation = host._incarnation

        def decide(allowed: bool, reason: str, attempts: int, responses: int):
            return self._decide(
                application, user, right, allowed, reason, attempts, responses,
                host.env.now - start_real,
            )

        # -- negative-cache fast path (extension) --------------------------
        if policy.deny_cache_ttl is not None:
            deny_key = host._deny_probe(application, user, right)
            deny_limit = (
                host._deny_cache.get(deny_key) if deny_key is not None else None
            )
            if deny_limit is not None:
                if host.clock.now() < deny_limit:
                    host.stats["deny_cache_hits"] += 1
                    return decide(
                        False, DecisionReason.DENY_CACHED, attempts=0, responses=0
                    )
                del host._deny_cache[deny_key]

        # -- verification rounds -------------------------------------------
        outcome, attempts, responses = yield from self.verify(
            application, user, right, policy, incarnation
        )
        if outcome == GRANT:
            return decide(True, DecisionReason.VERIFIED, attempts, responses)
        if outcome == DENY:
            return decide(False, DecisionReason.DENIED, attempts, responses)
        if outcome == CRASHED:
            return decide(False, DecisionReason.HOST_CRASHED, attempts, 0)
        if outcome == NO_MANAGERS:
            return decide(False, DecisionReason.NO_MANAGERS, attempts, 0)

        # -- R attempts exhausted: Figure 4 or deny ------------------------
        if self.decision_policy.allow_on_exhaustion(policy):
            return decide(True, DecisionReason.DEFAULT_ALLOW, attempts, 0)
        return decide(False, DecisionReason.EXHAUSTED, attempts, 0)

    # -- verification core --------------------------------------------------
    def verify(
        self,
        application: str,
        user: str,
        right: Right,
        policy: AccessPolicy,
        incarnation: int,
        user_driven: bool = True,
    ):
        """Run verification rounds until decided or R is exhausted.

        Returns ``(outcome, attempts, responses)``.  A grant is cached
        (and a denial negative-cached, when enabled) as a side effect.
        """
        host = self.host
        managers = yield from self.resolver.resolve(host, application, policy)
        if not managers:
            return (NO_MANAGERS, 0, 0)
        required = policy.required_responses(len(managers))
        planner = self.planner_factory(policy)
        combiner = self.combiner_factory(policy)
        attempts = 0
        while policy.max_attempts is None or attempts < policy.max_attempts:
            attempts += 1
            send_local = host.clock.now()
            responses = yield from planner.run_round(
                host, application, user, right, managers, required, policy,
                attempts, combiner,
            )
            if host._incarnation != incarnation:
                return (CRASHED, attempts, 0)
            best = combiner.combine(responses, required)
            if best is not None:
                if best.verdict == Verdict.GRANT:
                    limit = host._expiry_limit(send_local, best.te, policy)
                    host.cache_for(application).store(
                        CacheEntry(
                            user=user, right=right, limit=limit, version=best.version
                        ),
                        now_local=host.clock.now() if user_driven else None,
                    )
                    tracer = host.tracer
                    if tracer.wants(TraceKind.CACHE_STORED):
                        tracer.publish(
                            TraceKind.CACHE_STORED,
                            host.address,
                            application=application,
                            user=user,
                            right=str(right),
                            limit=limit,
                            send_local=send_local,
                            now_local=host.clock.now(),
                            te=best.te,
                        )
                    else:
                        tracer.bump(TraceKind.CACHE_STORED)
                    host._deny_cache.pop(
                        host._deny_key(application, user, right), None
                    )
                    return (GRANT, attempts, len(responses))
                if policy.deny_cache_ttl is not None:
                    host._deny_cache[host._deny_key(application, user, right)] = (
                        host.clock.now() + policy.deny_cache_ttl
                    )
                return (DENY, attempts, len(responses))
            tracer = host.tracer
            if tracer.wants(TraceKind.QUERY_TIMEOUT):
                tracer.publish(
                    TraceKind.QUERY_TIMEOUT,
                    host.address,
                    application=application,
                    user=user,
                    attempt=attempts,
                    responses=len(responses),
                )
            else:
                tracer.bump(TraceKind.QUERY_TIMEOUT)
            if policy.retry_backoff > 0 and (
                policy.max_attempts is None or attempts < policy.max_attempts
            ):
                yield host.env.timeout(policy.retry_backoff)
                if host._incarnation != incarnation:
                    return (CRASHED, attempts, 0)
        return (UNRESOLVED, attempts, 0)
