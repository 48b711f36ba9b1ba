"""Structured event tracing.

Protocol components publish typed trace records to a :class:`Tracer`;
metrics collectors (``repro.metrics``) subscribe to the record kinds
they care about.  Tracing is how every empirical number in
EXPERIMENTS.md is measured, so the record vocabulary below is part of
the reproduction's public surface.

Hot-path contract
-----------------
Publishing sits on the per-message fast path (millions of calls per
experiment sweep), so the API is layered by cost:

* :meth:`Tracer.wants` — one set-membership test; True when *anything*
  (a kind subscriber, a wildcard subscriber, or the in-memory log)
  would observe a record of that kind.
* :meth:`Tracer.bump` — count-only accounting for a kind nobody is
  listening to.  Per-kind publish counts are part of the public surface
  (``count``/``counts`` feed the fuzz-cell stats and several tests), so
  guarded publishers must bump what they do not publish.
* :meth:`Tracer.publish` — the full path: counts, record construction,
  log retention, subscriber dispatch.

Guarded publishers follow the idiom::

    if tracer.wants(TraceKind.MSG_SENT):
        tracer.publish(TraceKind.MSG_SENT, src, dst=dst, message_kind=...)
    else:
        tracer.bump(TraceKind.MSG_SENT)

which keeps counts exact while never building the keyword-argument
dict, the record, or expensive payload values for unobserved kinds.
``publish`` alone remains correct (it counts and checks subscribers
itself); the guard only removes the allocation.

:class:`TraceRecord` is a ``__slots__`` dataclass and every
:class:`TraceKind` constant is interned, so dispatch hashes and
compares by pointer on the hot path.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["TraceRecord", "Tracer", "TraceKind"]


class TraceKind:
    """Vocabulary of trace-record kinds published by the reproduction.

    Grouped by publisher.  Components may publish additional ad-hoc
    kinds; collectors should ignore kinds they do not understand.
    """

    # -- network -----------------------------------------------------------
    MSG_SENT = "msg_sent"
    MSG_DELIVERED = "msg_delivered"
    MSG_DROPPED = "msg_dropped"

    # -- host-side access control -------------------------------------------
    ACCESS_REQUESTED = "access_requested"
    ACCESS_ALLOWED = "access_allowed"  # via a verified right
    ACCESS_DENIED = "access_denied"
    ACCESS_DEFAULT_ALLOWED = "access_default_allowed"  # Figure 4 rule
    ACCESS_UNRESOLVED = "access_unresolved"  # R exhausted, deny policy
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    CACHE_EXPIRED = "cache_expired"
    CACHE_STORED = "cache_stored"  # verified grant entered the cache
    CACHE_FLUSHED = "cache_flushed"  # revocation notification arrived
    QUERY_SENT = "query_sent"
    QUERY_ANSWERED = "query_answered"
    QUERY_TIMEOUT = "query_timeout"

    # -- manager-side access control -----------------------------------------
    GRANT_SEEDED = "grant_seeded"  # out-of-protocol bootstrap grant
    UPDATE_ISSUED = "update_issued"
    UPDATE_QUORUM_REACHED = "update_quorum_reached"
    UPDATE_FULLY_PROPAGATED = "update_fully_propagated"
    REVOKE_FORWARDED = "revoke_forwarded"
    MANAGER_FROZEN = "manager_frozen"
    MANAGER_UNFROZEN = "manager_unfrozen"
    MANAGER_RESYNCED = "manager_resynced"

    # -- failures -------------------------------------------------------------
    HOST_CRASHED = "host_crashed"
    HOST_RECOVERED = "host_recovered"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    PARTITION_STARTED = "partition_started"
    PARTITION_HEALED = "partition_healed"


# Intern every kind constant so hot-path dict/set lookups hash cached
# strings and compare by identity.  (Literal kinds at call sites are
# interned by the compiler; this pins the attribute values themselves.)
for _name in list(vars(TraceKind)):
    if _name.isupper():
        setattr(TraceKind, _name, sys.intern(getattr(TraceKind, _name)))
del _name


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One published trace record.

    Attributes
    ----------
    time:
        Simulated (real, not local-clock) time of the record.
    kind:
        One of the :class:`TraceKind` constants.
    source:
        Address or name of the publishing component.
    data:
        Kind-specific payload.
    """

    time: float
    kind: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)


Subscriber = Callable[[TraceRecord], None]


class Tracer:
    """Publish/subscribe hub for :class:`TraceRecord`.

    Subscribers register for specific kinds (or ``None`` for all kinds).
    Optionally keeps an in-memory log of everything published, which the
    tests use for fine-grained assertions.
    """

    __slots__ = ("env", "keep_log", "log", "_by_kind", "_wildcard", "_counts", "_all")

    def __init__(self, env, keep_log: bool = False):
        self.env = env
        self.keep_log = keep_log
        self.log: List[TraceRecord] = []
        self._by_kind: Dict[str, List[Subscriber]] = {}
        self._wildcard: List[Subscriber] = []
        self._counts: Dict[str, int] = {}
        # True when every kind is observed (wildcard subscriber or log).
        self._all = keep_log

    def subscribe(self, kinds: Optional[Iterable[str]], subscriber: Subscriber) -> None:
        """Deliver records of the given ``kinds`` (or all, if None)."""
        if kinds is None:
            self._wildcard.append(subscriber)
            self._all = True
        else:
            for kind in kinds:
                self._by_kind.setdefault(sys.intern(kind), []).append(subscriber)

    def wants(self, kind: str) -> bool:
        """True when a record of ``kind`` would be observed by anyone.

        The guard half of the guarded-publish idiom (see the module
        docstring); a publisher that skips ``publish`` on a False
        answer must call :meth:`bump` instead to keep counts exact.
        """
        return self._all or kind in self._by_kind

    def bump(self, kind: str, n: int = 1) -> None:
        """Count ``n`` records of ``kind`` without constructing them."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + n

    def publish(self, kind: str, source: str, **data: Any) -> None:
        """Publish a record stamped with the current simulated time."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        subscribers = self._by_kind.get(kind)
        if not subscribers and not self._all:
            return  # fast path: nobody is listening
        record = TraceRecord(time=self.env.now, kind=kind, source=source, data=data)
        if self.keep_log:
            self.log.append(record)
        if subscribers:
            for subscriber in subscribers:
                subscriber(record)
        for subscriber in self._wildcard:
            subscriber(record)

    def counts(self) -> Dict[str, int]:
        """Copy of all per-kind publish counts."""
        return dict(self._counts)

    def __repr__(self) -> str:
        total = sum(self._counts.values())
        return f"<Tracer records={total} kinds={len(self._counts)}>"
