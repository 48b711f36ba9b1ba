"""The paper's performance cost model (Section 4.1, first paragraphs).

"The performance overhead of the access control algorithm is naturally
O(C/Te), since the access rights have to be checked every Te time units
and checking them involves communication with at least C managers. ...
The delay that the access control protocol imposes on an individual
message ... is very small if the valid access control entry is already
in the cache.  If the entry is not in the cache, the delay is O(C) in
the normal case ... but O(R) if the required number are not
accessible."

These formulas predict what the ``overhead`` and ``latency``
experiments measure; EXPERIMENTS.md compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.policy import AccessPolicy, QueryStrategy

__all__ = [
    "steady_state_check_rate",
    "steady_state_message_rate",
    "miss_messages",
    "miss_delay",
    "worst_case_delay",
    "CostModel",
]


def steady_state_check_rate(te_local: float) -> float:
    """Cache-refresh checks per unit time for one active (host, user)
    pair: rights must be re-verified every ``te`` time units."""
    if te_local <= 0:
        raise ValueError("te must be positive")
    return 1.0 / te_local


def steady_state_message_rate(check_quorum: int, te_local: float) -> float:
    """The paper's ``O(C/Te)``: query+response message pairs per unit
    time for one continuously active (host, user) pair."""
    if check_quorum < 1:
        raise ValueError("C must be >= 1")
    return check_quorum / te_local


def miss_messages(policy: AccessPolicy, n_managers: int) -> int:
    """Messages (queries + answers) of a cache miss in a healthy cell:
    ``2M`` when every manager is asked at once, the paper's ``2C`` when
    the round stops at the check quorum (sequential and quorum)."""
    if policy.query_strategy is QueryStrategy.PARALLEL:
        return 2 * n_managers
    return 2 * policy.required_responses(n_managers)


def miss_delay(policy: AccessPolicy, round_trip: float) -> float:
    """Expected added delay of a cache miss when >= C managers answer.

    Parallel and quorum strategies: one round trip regardless of C
    (messages are concurrent) — the ``O(C)`` cost shows up in messages,
    not latency.  Sequential strategy (Figure 2): C round trips, the
    literal ``O(C)``.
    """
    if round_trip < 0:
        raise ValueError("round_trip must be non-negative")
    if policy.query_strategy is QueryStrategy.SEQUENTIAL:
        return policy.effective_check_quorum * round_trip
    return round_trip


def worst_case_delay(policy: AccessPolicy) -> float:
    """Upper bound on the delay when managers are unreachable: ``O(R)``
    attempts, each costing a query timeout per batch plus backoff.

    Infinite for ``R = None`` (the host retries until the partition
    heals).
    """
    if policy.max_attempts is None:
        return float("inf")
    r = policy.max_attempts
    per_attempt = policy.query_timeout
    if policy.query_strategy is QueryStrategy.SEQUENTIAL:
        # A full sequential round times out once per manager it tried;
        # bound by C timeouts (it stops collecting at C).
        per_attempt *= policy.effective_check_quorum
    elif policy.query_strategy is QueryStrategy.QUORUM:
        # C managers, then everyone else: two timers at worst.
        per_attempt *= 2
    return r * per_attempt + (r - 1) * policy.retry_backoff


@dataclass(frozen=True)
class CostModel:
    """All predicted costs for one policy in one network."""

    policy: AccessPolicy
    round_trip: float

    @property
    def check_rate(self) -> float:
        return steady_state_check_rate(self.policy.te_local)

    @property
    def message_rate(self) -> float:
        return steady_state_message_rate(
            self.policy.effective_check_quorum, self.policy.te_local
        )

    @property
    def cache_miss_delay(self) -> float:
        return miss_delay(self.policy, self.round_trip)

    @property
    def unreachable_delay(self) -> float:
        return worst_case_delay(self.policy)
