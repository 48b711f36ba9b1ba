"""Terminal decision policy and the Figure 3 expiry stamp.

:class:`ExpiryStamper` computes the cached entry's limit
(``Time() + te - delta``); :class:`DecisionPolicy` maps a verification
outcome to the final :class:`AccessDecision` — the
verified / denied paths, Figure 4's default-allow escape hatch, and the
deny-on-exhaustion alternative — and publishes the access-level trace
record every oracle and metrics collector keys on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.policy import AccessPolicy, DeltaMode, ExhaustedAction
from ..core.rights import Right
from ..sim.trace import TraceKind

__all__ = ["AccessDecision", "DecisionReason", "ExpiryStamper", "DecisionPolicy"]


class DecisionReason:
    """Why an access was allowed or rejected."""

    CACHE = "cache"  # live cached grant (Figure 3 fast path)
    VERIFIED = "verified"  # fresh check quorum said grant
    DENIED = "denied"  # fresh check quorum said deny
    DENY_CACHED = "deny_cache"  # negative-cache fast path
    DEFAULT_ALLOW = "default_allow"  # Figure 4: R attempts failed, allow
    EXHAUSTED = "exhausted"  # R attempts failed, deny policy
    HOST_CRASHED = "host_crashed"  # this host crashed mid-check
    NO_MANAGERS = "no_managers"  # no manager set configured for the app


@dataclass(frozen=True)
class AccessDecision:
    """Outcome of one access check."""

    application: str
    user: str
    right: Right
    allowed: bool
    reason: str
    attempts: int  # completed verification rounds (0 for cache hits)
    responses: int  # manager responses gathered in the deciding round
    latency: float  # real simulated time from request to decision

    def __bool__(self) -> bool:
        return self.allowed


class ExpiryStamper:
    """Figure 3's stamp: ``Time() + te - delta``.

    ``send_local`` is the local clock when the deciding query round
    started; the elapsed local time since then upper-bounds the
    transmission delay delta.
    """

    def limit(
        self, clock, send_local: float, te: float, policy: AccessPolicy
    ) -> float:
        now_local = clock.now()
        elapsed = now_local - send_local
        if policy.delta_mode is DeltaMode.HALF_ROUND_TRIP:
            return now_local - elapsed / 2.0 + te
        return send_local + te  # delta = full round trip, always safe


class DecisionPolicy:
    """Maps one check's outcome to its decision, stats, and trace."""

    def allow_on_exhaustion(self, policy: AccessPolicy) -> bool:
        """Figure 4's rule vs the deny-on-exhaustion alternative."""
        return policy.exhausted_action is ExhaustedAction.ALLOW

    def record(self, host, decision) -> None:
        """Publish the access-level trace record and bump host stats."""
        if decision.allowed:
            if decision.reason == "default_allow":
                host.stats["default_allowed"] += 1
                kind = TraceKind.ACCESS_DEFAULT_ALLOWED
            else:
                kind = TraceKind.ACCESS_ALLOWED
            host.stats["allowed"] += 1
        else:
            host.stats["denied"] += 1
            kind = (
                TraceKind.ACCESS_UNRESOLVED
                if decision.reason in ("exhausted", "host_crashed")
                else TraceKind.ACCESS_DENIED
            )
        tracer = host.tracer
        if tracer.wants(kind):
            tracer.publish(
                kind,
                host.address,
                application=decision.application,
                user=decision.user,
                reason=decision.reason,
                attempts=decision.attempts,
                responses=decision.responses,
                latency=decision.latency,
            )
        else:
            tracer.bump(kind)
