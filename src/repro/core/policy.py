"""Per-application access-control policy — the paper's tunable knobs.

Section 4: "The availability and security enforced by the protocol, as
well as its performance, can be customized by adjusting the number of
managers M, the check quorum C, the expiration time Te, and the attempt
count R."  Section 3.3 adds the freeze strategy's inaccessibility
period Ti, and Section 3.2 the clock-slowness bound b.

:class:`AccessPolicy` gathers all of these plus the engineering
parameters the paper leaves implicit (query timeout, retry pacing,
query fan-out strategy).  Derived quantities:

``te_local``
    The cache lifetime handed out by managers, measured on the host's
    local clock: ``Te / b`` for the quorum strategy, ``(Te - Ti) / b``
    when the freeze strategy is active (the paper: "Ti and te must be
    chosen so that their sum is at most Te").

``update_quorum(M)``
    ``M - C + 1``, so every update quorum intersects every check quorum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "AccessPolicy",
    "QueryStrategy",
    "ExhaustedAction",
    "DeltaMode",
    "UNBOUNDED_ATTEMPTS",
]

#: Sentinel for "retry forever" (the analysis's ``R = infinity``).
UNBOUNDED_ATTEMPTS: Optional[int] = None


class QueryStrategy(enum.Enum):
    """How a host gathers its check quorum of ``C`` manager responses."""

    #: Figure 2 style: query one manager at a time, rotating through
    #: the manager set, until C distinct grants/denials are in hand.
    SEQUENTIAL = "sequential"
    #: Query all managers at once; proceed when C have answered.
    PARALLEL = "parallel"
    #: Query C managers (rotating, silent ones last); ask the rest only
    #: if those fall short by the query timeout.  The paper's O(C) miss.
    QUORUM = "quorum"


class ExhaustedAction(enum.Enum):
    """What to do when R verification attempts have all failed."""

    #: Reject the access (security over availability).
    DENY = "deny"
    #: Figure 4's rule: "when attempt to verify access right has failed
    #: R times { allow access; }" (availability over security).
    ALLOW = "allow"


class DeltaMode(enum.Enum):
    """How the transmission delay ``delta`` is charged against ``te``.

    The paper: the timestamp stored is ``Time() + te - delta`` where
    delta "is at most the time period from when the query was sent to
    when the corresponding response was received".
    """

    #: Charge the full local-clock round trip (delta = elapsed since the
    #: query round started).  Always safe; the default.
    FULL_ROUND_TRIP = "full_round_trip"
    #: Charge half the round trip (estimate of the one-way response
    #: delay).  Tighter, still safe in symmetric-latency networks.
    HALF_ROUND_TRIP = "half_round_trip"


@dataclass(frozen=True)
class AccessPolicy:
    """All per-application protocol parameters.

    Attributes
    ----------
    check_quorum:
        ``C`` — manager responses required before deciding an access.
    expiry_bound:
        ``Te`` — the real-time revocation bound: a revocation issued at
        ``t`` is globally effective by ``t + Te``.
    clock_bound:
        ``b >= 1`` — no host clock is more than ``b`` times slower than
        real time.
    max_attempts:
        ``R`` — verification attempts before giving up; ``None`` means
        retry forever (paper's ``R = infinity`` analysis assumption).
    exhausted_action:
        Applies only when ``max_attempts`` is finite.
    use_freeze:
        Select Section 3.3's freeze strategy instead of quorums for
        manager-side consistency.  Quorum parameters still govern the
        host-side check when this is off; with freeze on, hosts accept
        a single manager response (C is forced to 1 semantically) and
        managers stop answering while frozen.
    inaccessibility_period:
        ``Ti`` — how long a manager may be unreachable from its peers
        before the freeze strategy freezes all rights.
    query_timeout:
        How long a host waits for one batch of queries before widening
        the round or retrying.
    query_strategy:
        How a round cuts ``Managers(A)`` into batches: C at a time and
        the rest on a timeout (the default), one by one (Figure 2), or
        all at once.
    retry_backoff:
        Pause between failed verification attempts.
    delta_mode:
        Transmission-delay accounting for cache expiry stamps.
    update_retry_interval:
        Pacing of a manager's persistent update dissemination.
    revoke_retry_interval:
        Pacing of revocation forwarding to caching hosts.
    ping_interval:
        Manager peer-liveness probe period (freeze strategy).
    cache_cleanup_interval:
        Period of the host's background expired-entry sweep; ``None``
        disables the sweep (entries still expire lazily on lookup).
    refresh_ahead_fraction:
        Extension: when set (in (0, 1)), cached entries whose remaining
        lifetime drops below this fraction of ``te`` are re-verified in
        the background, hiding miss latency.  ``None`` disables.
    refresh_check_interval:
        How often the refresh-ahead sweep runs.
    deny_cache_ttl:
        Extension: when set, denials are cached for this many
        local-clock units (sheds repeated unauthorized query load; can
        only delay a fresh Add, never extend access).  ``None``
        disables.
    idle_eviction_ttl:
        Section 3.2's memory optimisation: cache entries not accessed
        for this many local-clock units are evicted during the cleanup
        sweep even if unexpired.  ``None`` disables.
    byzantine_f:
        Extension (paper footnote 2): number of lying managers to
        tolerate.  With ``f > 0``, a verdict needs ``f + 1`` managers
        vouching for the same (verdict, version).  Requires
        ``check_quorum >= f + 1``; pair with signed manager responses.
    """

    check_quorum: int = 3
    expiry_bound: float = 300.0
    clock_bound: float = 1.05
    max_attempts: Optional[int] = UNBOUNDED_ATTEMPTS
    exhausted_action: ExhaustedAction = ExhaustedAction.DENY
    use_freeze: bool = False
    inaccessibility_period: float = 0.0
    query_timeout: float = 1.0
    query_strategy: QueryStrategy = QueryStrategy.QUORUM
    retry_backoff: float = 1.0
    delta_mode: DeltaMode = DeltaMode.FULL_ROUND_TRIP
    update_retry_interval: float = 2.0
    revoke_retry_interval: float = 2.0
    ping_interval: float = 5.0
    cache_cleanup_interval: Optional[float] = 60.0
    refresh_ahead_fraction: Optional[float] = None
    refresh_check_interval: float = 5.0
    idle_eviction_ttl: Optional[float] = None
    deny_cache_ttl: Optional[float] = None
    byzantine_f: int = 0

    def __post_init__(self) -> None:
        if self.check_quorum < 1:
            raise ValueError(f"check quorum must be >= 1, got {self.check_quorum}")
        if self.expiry_bound <= 0:
            raise ValueError(f"Te must be positive, got {self.expiry_bound}")
        if self.clock_bound < 1.0:
            raise ValueError(f"clock bound b must be >= 1, got {self.clock_bound}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(f"R must be >= 1 or None, got {self.max_attempts}")
        if self.inaccessibility_period < 0:
            raise ValueError("Ti must be non-negative")
        if self.use_freeze and self.inaccessibility_period <= 0:
            raise ValueError("freeze strategy requires a positive Ti")
        if self.use_freeze and self.inaccessibility_period >= self.expiry_bound:
            raise ValueError("freeze strategy requires Ti < Te (Ti + te <= Te)")
        if self.query_timeout <= 0:
            raise ValueError("query_timeout must be positive")
        # Accepts the enum's value too, so a JSON policy can name one.
        object.__setattr__(self, "query_strategy", QueryStrategy(self.query_strategy))
        for name in ("retry_backoff", "update_retry_interval",
                     "revoke_retry_interval", "ping_interval"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.refresh_ahead_fraction is not None and not (
            0.0 < self.refresh_ahead_fraction < 1.0
        ):
            raise ValueError("refresh_ahead_fraction must be in (0, 1)")
        if self.refresh_check_interval <= 0:
            raise ValueError("refresh_check_interval must be positive")
        if self.deny_cache_ttl is not None and self.deny_cache_ttl <= 0:
            raise ValueError("deny_cache_ttl must be positive or None")
        if self.idle_eviction_ttl is not None and self.idle_eviction_ttl <= 0:
            raise ValueError("idle_eviction_ttl must be positive or None")
        if self.byzantine_f < 0:
            raise ValueError("byzantine_f must be non-negative")
        if self.byzantine_f > 0 and self.check_quorum < self.byzantine_f + 1:
            raise ValueError(
                "byzantine tolerance needs check_quorum >= byzantine_f + 1"
            )

    # -- derived quantities --------------------------------------------------
    @property
    def te_local(self) -> float:
        """Cache lifetime handed out by managers, in local-clock units.

        Quorum strategy: ``te = Te / b`` (Section 3.2).  Freeze
        strategy: ``te = (Te - Ti) / b`` so ``Ti + b*te <= Te``
        (Section 3.3: "Ti and te must be chosen so that their sum is at
        most Te", with clock rate differences accounted for).
        """
        budget = self.expiry_bound - (
            self.inaccessibility_period if self.use_freeze else 0.0
        )
        return budget / self.clock_bound

    def update_quorum(self, n_managers: int) -> int:
        """``M - C + 1`` — intersects every check quorum of size C."""
        self.validate_for(n_managers)
        return n_managers - self.check_quorum + 1

    def validate_for(self, n_managers: int) -> None:
        """Check this policy is usable with ``n_managers`` managers."""
        if n_managers < 1:
            raise ValueError("need at least one manager")
        if self.check_quorum > n_managers:
            raise ValueError(
                f"check quorum {self.check_quorum} exceeds manager count {n_managers}"
            )

    @property
    def effective_check_quorum(self) -> int:
        """Responses a host must collect: C, or 1 under the freeze strategy."""
        return 1 if self.use_freeze else self.check_quorum

    def required_responses(self, n_managers: int) -> int:
        """Responses a verification round must gather against a manager
        set of ``n_managers``: the effective check quorum, clamped so a
        smaller-than-C manager set can still complete a round instead of
        stalling forever."""
        return min(self.effective_check_quorum, n_managers)

    # -- presets ---------------------------------------------------------------
    @classmethod
    def security_first(cls, n_managers: int, expiry_bound: float = 300.0,
                       **overrides) -> "AccessPolicy":
        """Confidential services: every manager must concur (C = M), so
        every update quorum is 1 and a revocation takes effect as soon
        as any manager learns of it; hosts retry forever rather than
        ever defaulting to allow."""
        params = dict(
            check_quorum=n_managers,
            expiry_bound=expiry_bound,
            max_attempts=UNBOUNDED_ATTEMPTS,
            exhausted_action=ExhaustedAction.DENY,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def availability_first(cls, n_managers: int, expiry_bound: float = 3600.0,
                           attempts: int = 3, **overrides) -> "AccessPolicy":
        """On-line newspapers and the like: a single manager's word is
        enough (C = 1), and after R failed attempts access is allowed
        by default (Figure 4)."""
        params = dict(
            check_quorum=1,
            expiry_bound=expiry_bound,
            max_attempts=attempts,
            exhausted_action=ExhaustedAction.ALLOW,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def balanced(cls, n_managers: int, expiry_bound: float = 300.0,
                 **overrides) -> "AccessPolicy":
        """The paper's sweet spot: C around M/2, where Figure 5 shows
        both availability and security close to 1."""
        params = dict(
            check_quorum=max(1, math.ceil(n_managers / 2)),
            expiry_bound=expiry_bound,
            max_attempts=UNBOUNDED_ATTEMPTS,
            exhausted_action=ExhaustedAction.DENY,
        )
        params.update(overrides)
        return cls(**params)

    def with_(self, **changes) -> "AccessPolicy":
        """A copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)
