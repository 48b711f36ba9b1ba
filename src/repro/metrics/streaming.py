"""Streaming, mergeable metric accumulators — the one collector per
measured quantity.

The empirical counterparts of the paper's quantities:

* **Availability** (``PA``) — "the probability that a host is able to
  verify the access control information of a legitimate user in a
  timely fashion": :class:`AvailabilityAccumulator`, the fraction of
  access attempts by *authorized* users that were allowed (optionally
  within a latency bound).
* **Security** — the hard invariant that no access is allowed past
  ``t_revoke + Te``: :class:`StalenessAccumulator` splits allowed
  accesses by unauthorized users into Te-window grace and violations.
* **Overhead** — control messages per simulated second, the measured
  side of the paper's ``O(C/Te)``: :class:`OverheadAccumulator`.
* **Latency** — decision latency split by path (cache hit, verified,
  default-allow, ...), the measured side of ``O(C)`` / ``O(R)``:
  :class:`LatencyAccumulator` over :class:`StreamingSummary`.

Each consumes observations one at a time in O(1) state (exact counts,
exact moments, min/max, plus a seeded bounded reservoir for quantiles),
so no run keeps a per-decision list, and implements the
:class:`Mergeable` protocol so partial accumulators — per trial, per
shard — can be combined into one.

Merge contract
--------------
``a.merge(b)`` returns a **new** accumulator equivalent to having fed
``a``'s and then ``b``'s observations into a fresh instance; neither
operand is mutated.  All merges here are associative, so any grouping
of partials folds to the same result as one sequential stream.  Counts
and sums are exact (integer or Shewchuk-compensated float), so they are
additionally commutative; the quantile reservoir keys every value by a
hash of ``(seed, arrival index)``, making the survivor set a pure
function of the multiset of keyed entries — independent of merge shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    runtime_checkable,
)

from ..sim.trace import TraceKind, TraceRecord, Tracer
from ..workloads.generators import ObservedDecision
from .estimators import SummaryStats, percentile, wilson_interval

__all__ = [
    "CONTROL_MESSAGE_KINDS",
    "AvailabilityReport",
    "OverheadReport",
    "Mergeable",
    "ExactSum",
    "StreamingSummary",
    "AvailabilityAccumulator",
    "StalenessAccumulator",
    "OverheadAccumulator",
    "LatencyAccumulator",
]

M = TypeVar("M", bound="Mergeable")

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Message kinds that constitute protocol (control) traffic, as opposed
#: to application payload traffic.
CONTROL_MESSAGE_KINDS = frozenset(
    {
        "QueryRequest",
        "QueryResponse",
        "UpdateMsg",
        "UpdateAck",
        "RevokeNotify",
        "RevokeNotifyAck",
        "SyncRequest",
        "SyncResponse",
        "Ping",
        "Pong",
    }
)


@dataclass(frozen=True)
class AvailabilityReport:
    """Empirical ``PA`` over a run."""

    authorized_attempts: int
    authorized_allowed: int
    unauthorized_attempts: int
    unauthorized_allowed: int  # default-allow lets these through by design
    availability: float
    confidence: Tuple[float, float]


@dataclass(frozen=True)
class OverheadReport:
    """Protocol message traffic over a run."""

    duration: float
    control_messages: int
    app_messages: int
    by_kind: Dict[str, int]
    control_rate: float  # control messages per simulated second


@runtime_checkable
class Mergeable(Protocol):
    """An accumulator whose partial states combine associatively.

    ``merge`` must return a *new* instance and leave both operands
    untouched; a freshly constructed accumulator acts as the identity.
    """

    def merge(self: M, other: M) -> M:
        """Combine two partial states into a new one."""
        ...


def _mix(seed: int, index: int) -> int:
    """SplitMix64-style avalanche of ``(seed, index)`` into 64 bits.

    Deterministic across processes and platforms (unlike ``hash``), so
    reservoir survivorship is reproducible for a given seed.
    """
    z = (seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _string_seed(seed: int, text: str) -> int:
    """Derive a per-bucket seed from a base seed and a string key."""
    acc = seed & _MASK64
    for byte in text.encode("utf-8"):
        acc = _mix(acc, byte)
    return acc


class ExactSum:
    """Exactly rounded running float sum (Shewchuk partials).

    ``add`` maintains a list of non-overlapping partials (the classic
    ``msum`` grow step); ``value`` rounds them once via ``math.fsum``.
    Because the partials represent the sum exactly, addition order —
    and therefore merge shape — cannot change the result.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: List[float] = []

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        x = float(x)
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> "ExactSum":
        merged = ExactSum()
        merged._partials = list(self._partials)
        for partial in other._partials:
            merged.add(partial)
        return merged

    def value(self) -> float:
        return math.fsum(self._partials)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSum):
            return NotImplemented
        return math.fsum(self._partials) == math.fsum(other._partials)

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"


#: A reservoir entry: (priority key, owner seed, arrival index, value).
#: Entries are totally ordered — the trailing value breaks the
#: (astronomically unlikely) full key collision — so "keep the k
#: smallest" is a pure function of the entry multiset.
_Entry = Tuple[int, int, int, float]


class StreamingSummary:
    """Summary of a sample: exact n/mean/min/max plus
    reservoir-estimated percentiles.

    The reservoir is *bottom-k by keyed priority*: each added value gets
    the key ``_mix(seed, arrival_index)`` and the ``capacity`` smallest
    keys survive.  That makes survivorship deterministic for a seed and
    merge-shape independent, and it degrades gracefully: while
    ``n <= capacity`` every value is retained, so percentiles are exact
    and match ``estimators.percentile`` on the full sample.

    Give accumulators that will be merged *distinct seeds* (e.g. the
    per-trial seed) so their keys interleave uniformly.
    """

    __slots__ = ("seed", "capacity", "n", "_sum", "_min", "_max", "_adds", "_entries")

    def __init__(self, seed: int = 0, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.seed = int(seed)
        self.capacity = capacity
        self.n = 0
        self._sum = ExactSum()
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._adds = 0  # local arrival counter (keys), distinct from merged n
        self._entries: List[_Entry] = []

    def add(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self._sum.add(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._entries.append((_mix(self.seed, self._adds), self.seed, self._adds, value))
        self._adds += 1
        if len(self._entries) > 2 * self.capacity:
            self._trim()

    def _trim(self) -> None:
        if len(self._entries) > self.capacity:
            self._entries.sort()
            del self._entries[self.capacity:]

    def merge(self, other: "StreamingSummary") -> "StreamingSummary":
        if other.capacity != self.capacity:
            raise ValueError(
                f"cannot merge reservoirs of different capacity "
                f"({self.capacity} vs {other.capacity})"
            )
        merged = StreamingSummary(self.seed, self.capacity)
        merged.n = self.n + other.n
        merged._sum = self._sum.merge(other._sum)
        for bound in (self._min, other._min):
            if bound is not None and (merged._min is None or bound < merged._min):
                merged._min = bound
        for bound in (self._max, other._max):
            if bound is not None and (merged._max is None or bound > merged._max):
                merged._max = bound
        merged._adds = self._adds  # future adds continue the left operand's keys
        merged._entries = self._entries + other._entries
        merged._trim()
        return merged

    def summary(self) -> Optional[SummaryStats]:
        """The sample's :class:`SummaryStats` (None if empty)."""
        if self.n == 0:
            return None
        self._trim()
        sample = [entry[3] for entry in self._entries]
        return SummaryStats(
            n=self.n,
            mean=self._sum.value() / self.n,
            p50=percentile(sample, 50),
            p95=percentile(sample, 95),
            p99=percentile(sample, 99),
            minimum=self._min,
            maximum=self._max,
        )

    def _state(self) -> Tuple[Any, ...]:
        self._trim()
        return (self.n, self._sum.value(), self._min, self._max, sorted(self._entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamingSummary):
            return NotImplemented
        return self._state() == other._state()

    def __repr__(self) -> str:
        return f"<StreamingSummary n={self.n} reservoir={len(self._entries)}/{self.capacity}>"


class AvailabilityAccumulator:
    """Empirical ``PA``: four exact counters over observed decisions.

    ``latency_bound`` tightens "timely fashion": an allowed decision
    slower than the bound counts as unavailable.  :meth:`report` emits
    the :class:`AvailabilityReport`; an empty run is vacuously
    available.
    """

    __slots__ = (
        "latency_bound",
        "authorized_attempts",
        "authorized_allowed",
        "unauthorized_attempts",
        "unauthorized_allowed",
    )

    def __init__(self, latency_bound: Optional[float] = None):
        self.latency_bound = latency_bound
        self.authorized_attempts = 0
        self.authorized_allowed = 0
        self.unauthorized_attempts = 0
        self.unauthorized_allowed = 0

    def observe(self, observed: ObservedDecision) -> None:
        decision = observed.decision
        allowed = decision.allowed
        timely = allowed and (
            self.latency_bound is None or decision.latency <= self.latency_bound
        )
        if observed.authorized:
            self.authorized_attempts += 1
            if timely:
                self.authorized_allowed += 1
        else:
            self.unauthorized_attempts += 1
            if allowed:
                self.unauthorized_allowed += 1

    def merge(self, other: "AvailabilityAccumulator") -> "AvailabilityAccumulator":
        if other.latency_bound != self.latency_bound:
            raise ValueError("cannot merge accumulators with different latency bounds")
        merged = AvailabilityAccumulator(self.latency_bound)
        merged.authorized_attempts = self.authorized_attempts + other.authorized_attempts
        merged.authorized_allowed = self.authorized_allowed + other.authorized_allowed
        merged.unauthorized_attempts = (
            self.unauthorized_attempts + other.unauthorized_attempts
        )
        merged.unauthorized_allowed = (
            self.unauthorized_allowed + other.unauthorized_allowed
        )
        return merged

    def report(self) -> AvailabilityReport:
        availability = (
            self.authorized_allowed / self.authorized_attempts
            if self.authorized_attempts
            else 1.0
        )
        return AvailabilityReport(
            authorized_attempts=self.authorized_attempts,
            authorized_allowed=self.authorized_allowed,
            unauthorized_attempts=self.unauthorized_attempts,
            unauthorized_allowed=self.unauthorized_allowed,
            availability=availability,
            confidence=wilson_interval(self.authorized_allowed, self.authorized_attempts)
            if self.authorized_attempts
            else (0.0, 1.0),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AvailabilityAccumulator):
            return NotImplemented
        return (
            self.latency_bound == other.latency_bound
            and self.authorized_attempts == other.authorized_attempts
            and self.authorized_allowed == other.authorized_allowed
            and self.unauthorized_attempts == other.unauthorized_attempts
            and self.unauthorized_allowed == other.unauthorized_allowed
        )


class StalenessAccumulator:
    """Streaming collector of the Te-window candidates behind ``PS``.

    The grace/violation split depends on the oracle's *final* revocation
    record (a decision made before the revocation was even issued is
    still "within the window" in the paper's accounting), so candidates
    — allowed decisions by unauthorized users — are kept and classified
    once, at the end of the run, by :meth:`finalize`.  Only the (rare)
    suspicious decisions are stored, not the full observation list.
    """

    __slots__ = ("_candidates",)

    def __init__(self) -> None:
        self._candidates: List[Tuple[str, str, float]] = []

    def observe(self, observed: ObservedDecision) -> None:
        decision = observed.decision
        if decision.allowed and not observed.authorized:
            self._candidates.append(
                (observed.application, observed.user, observed.time + decision.latency)
            )

    def merge(self, other: "StalenessAccumulator") -> "StalenessAccumulator":
        merged = StalenessAccumulator()
        merged._candidates = self._candidates + other._candidates
        return merged

    def finalize(self, oracle: Any) -> Tuple[int, int]:
        """Classify candidates against the (final) oracle state.

        Returns ``(grace_window_allows, te_violations)``.
        """
        grace = violations = 0
        for application, user, decided_at in self._candidates:
            if oracle.violation(application, user, decided_at):
                violations += 1
            elif oracle.in_grace(application, user, decided_at):
                grace += 1
        return grace, violations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StalenessAccumulator):
            return NotImplemented
        return sorted(self._candidates) == sorted(other._candidates)


class OverheadAccumulator:
    """Sent messages counted by kind; :meth:`report` splits them into
    control and application traffic over a run's duration.

    Pass a tracer to subscribe to ``MSG_SENT`` live (create it *before*
    running the simulation), or feed kinds via :meth:`observe` when
    replaying.
    """

    __slots__ = ("by_kind",)

    def __init__(self, tracer: Optional[Tracer] = None):
        self.by_kind: Dict[str, int] = {}
        if tracer is not None:
            tracer.subscribe([TraceKind.MSG_SENT], self._on_record)

    def _on_record(self, record: TraceRecord) -> None:
        self.observe(record.data.get("message_kind", "?"))

    def observe(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def merge(self, other: "OverheadAccumulator") -> "OverheadAccumulator":
        merged = OverheadAccumulator()
        merged.by_kind = dict(self.by_kind)
        for kind, count in other.by_kind.items():
            merged.by_kind[kind] = merged.by_kind.get(kind, 0) + count
        return merged

    def report(self, duration: float) -> OverheadReport:
        if duration <= 0:
            raise ValueError("duration must be positive")
        control = sum(
            count
            for kind, count in self.by_kind.items()
            if kind in CONTROL_MESSAGE_KINDS
        )
        app = sum(self.by_kind.values()) - control
        return OverheadReport(
            duration=duration,
            control_messages=control,
            app_messages=app,
            by_kind=dict(self.by_kind),
            control_rate=control / duration,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverheadAccumulator):
            return NotImplemented
        return self.by_kind == other.by_kind


class LatencyAccumulator:
    """Decision latency summaries keyed by decision reason.

    The paper's cost claims map onto reasons: ``cache`` should be ~0,
    ``verified`` ~ one round trip (parallel) or C round trips
    (sequential), ``default_allow``/``exhausted`` ~ R timeouts.

    One :class:`StreamingSummary` per decision reason; each bucket's
    reservoir seed is derived from ``(seed, reason)`` so bucket
    survivorship stays deterministic and merge-shape independent.
    """

    __slots__ = ("seed", "capacity", "_buckets")

    def __init__(self, seed: int = 0, capacity: int = 1024):
        self.seed = int(seed)
        self.capacity = capacity
        self._buckets: Dict[str, StreamingSummary] = {}

    def observe(self, reason: str, latency: float) -> None:
        bucket = self._buckets.get(reason)
        if bucket is None:
            bucket = StreamingSummary(_string_seed(self.seed, reason), self.capacity)
            self._buckets[reason] = bucket
        bucket.add(latency)

    def merge(self, other: "LatencyAccumulator") -> "LatencyAccumulator":
        merged = LatencyAccumulator(self.seed, self.capacity)
        merged._buckets = dict(self._buckets)
        for reason, bucket in other._buckets.items():
            mine = merged._buckets.get(reason)
            merged._buckets[reason] = bucket if mine is None else mine.merge(bucket)
        return merged

    def summaries(self) -> Dict[str, SummaryStats]:
        return {
            reason: summary
            for reason, bucket in sorted(self._buckets.items())
            if (summary := bucket.summary()) is not None
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyAccumulator):
            return NotImplemented
        return self._buckets == other._buckets
