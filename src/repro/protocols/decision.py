"""What one access check decides: :class:`AccessDecision` and its
:class:`DecisionReason`.

The verification pipeline (:mod:`repro.protocols.pipeline`) makes and
records the decision; the host stamps cached grants
(:meth:`~repro.core.host.AccessControlHost._expiry_limit`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rights import Right

__all__ = ["AccessDecision", "DecisionReason"]


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
