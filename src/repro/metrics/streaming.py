"""Streaming metric accumulators — the one collector per measured
quantity.

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
* **Latency** — a sample's exact n/mean/min/max and reservoir
  quantiles: :class:`StreamingSummary`.

Each consumes observations one at a time in O(1) state (exact counts,
exact moments, min/max, plus a seeded bounded reservoir for quantiles),
so no run keeps a per-decision list.  A cell's accumulators are read in
the worker that ran the cell; nothing combines partial accumulators.

Reservoir contract
------------------
The quantile reservoir keys every value by a hash of ``(seed, arrival
index)`` and keeps the ``capacity`` smallest keys, so the survivor set
is a pure function of the seed and the stream: the same seed and values
print the same quantiles in any process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import TraceKind, TraceRecord, Tracer
from ..workloads.generators import ObservedDecision
from .estimators import SummaryStats, percentile, wilson_interval

__all__ = [
    "CONTROL_MESSAGE_KINDS",
    "AvailabilityReport",
    "OverheadReport",
    "ExactSum",
    "StreamingSummary",
    "AvailabilityAccumulator",
    "StalenessAccumulator",
    "OverheadAccumulator",
]

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


def _mix(seed: int, index: int) -> int:
    """SplitMix64-style avalanche of ``(seed, index)`` into 64 bits.

    Deterministic across processes and platforms (unlike ``hash``), so
    reservoir survivorship is reproducible for a given seed.
    """
    z = (seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class ExactSum:
    """Exactly rounded running float sum (Shewchuk partials).

    ``add`` maintains a list of non-overlapping partials (the classic
    ``msum`` grow step); ``value`` rounds them once via ``math.fsum``.
    Because the partials represent the sum exactly, addition order
    cannot change the result.
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

    def value(self) -> float:
        return math.fsum(self._partials)

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"


#: A reservoir entry: (priority key, arrival index, value).  Entries are
#: totally ordered (arrival indices are distinct), so "keep the k
#: smallest" is a pure function of the entry multiset.
_Entry = Tuple[int, int, float]


class StreamingSummary:
    """Summary of a sample: exact n/mean/min/max plus
    reservoir-estimated percentiles.

    The reservoir is *bottom-k by keyed priority*: each added value gets
    the key ``_mix(seed, arrival_index)`` and the ``capacity`` smallest
    keys survive.  That makes survivorship deterministic for a seed,
    and it degrades gracefully: while ``n <= capacity`` every value is
    retained, so percentiles are exact and match
    ``estimators.percentile`` on the full sample.
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
        self._adds = 0  # arrival counter (keys)
        self._entries: List[_Entry] = []

    def add(self, value: float) -> None:
        value = float(value)
        self.n += 1
        self._sum.add(value)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._entries.append((_mix(self.seed, self._adds), self._adds, value))
        self._adds += 1
        if len(self._entries) > 2 * self.capacity:
            self._trim()

    def _trim(self) -> None:
        if len(self._entries) > self.capacity:
            self._entries.sort()
            del self._entries[self.capacity:]

    def summary(self) -> Optional[SummaryStats]:
        """The sample's :class:`SummaryStats` (None if empty)."""
        if self.n == 0:
            return None
        self._trim()
        sample = [entry[2] for entry in self._entries]
        return SummaryStats(
            n=self.n,
            mean=self._sum.value() / self.n,
            p50=percentile(sample, 50),
            p95=percentile(sample, 95),
            p99=percentile(sample, 99),
            minimum=self._min,
            maximum=self._max,
        )

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
