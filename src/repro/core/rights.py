"""Access rights, versions, and ACL entries.

The paper restricts itself to two rights (Section 2.1): *use* — the
right to send messages to the application — and *manage* — the right to
change the access rights associated with the application.

Versions
--------
The paper assumes (Section 3.1) "a method exists for instantaneously
updating the access control information at all the hosts in
Managers(A)" and then relaxes it (Section 3.3) with quorums.  Quorum
reads return answers from several managers which may disagree while an
update is still propagating; to combine them, every ACL entry carries a
:class:`Version` — a Lamport pair ``(counter, origin)`` — and the
highest version wins.  The update quorum ``M - C + 1`` guarantees every
check quorum of ``C`` managers intersects every completed update, so
the winning version reflects the latest quorum-committed operation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "Right", "Version", "AclEntry", "ZERO_VERSION", "SEED_ORIGIN", "hlc_counter",
    "well_formed",
]


class Right(enum.Enum):
    """The paper's two access rights."""

    USE = "use"
    MANAGE = "manage"

    def __str__(self) -> str:  # nicer trace output
        return self.value


@total_ordering
@dataclass(frozen=True)
class Version:
    """Lamport version: (logical counter, origin manager id).

    Totally ordered; ties on the counter are broken by origin id so two
    concurrent updates at different managers still have a deterministic
    winner (last-writer-wins with a stable tiebreak).
    """

    counter: int
    origin: str

    def __lt__(self, other: "Version") -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return (self.counter, self.origin) < (other.counter, other.origin)

    def __str__(self) -> str:
        return f"{self.counter}@{self.origin}"


#: The version that precedes every real update (used for "never granted").
ZERO_VERSION = Version(0, "")

#: Version origin for grants seeded before time zero: the empty string
#: sorts below every real manager id, so ties go to real operations.
SEED_ORIGIN = ""

#: Millisecond granularity of the hybrid-logical-clock counters.
HLC_TICKS_PER_SECOND = 1_000


def hlc_counter(physical_seconds: float, lamport: int) -> int:
    """Hybrid logical clock: the next version counter.

    ``max(lamport + 1, physical milliseconds)``.  Pure Lamport counters
    have a real anomaly in this protocol: a manager that has not yet
    received an earlier committed grant can issue a *revocation* with a
    lower counter, which then permanently loses the last-writer-wins
    merge — a lost revocation.  Folding in physical time (managers form
    a small, stable, loosely clock-synchronized set; host clocks remain
    unconstrained) guarantees that an operation issued more than the
    manager-clock skew after another always dominates it, while the
    Lamport component preserves monotonicity when clocks stall or run
    behind.
    """
    return max(lamport + 1, int(physical_seconds * HLC_TICKS_PER_SECOND))


@dataclass(frozen=True)
class AclEntry:
    """State of one (user, right) pair in an authoritative ACL.

    ``granted=False`` entries are *tombstones*: they record a revocation
    so that a manager that missed the revoke loses the version
    comparison when its stale grant meets the tombstone in a check
    quorum.
    """

    user: str
    right: Right
    granted: bool
    version: Version

    def dominates(self, other: "AclEntry") -> bool:
        """True if this entry should replace ``other`` on merge."""
        return self.version > other.version


def well_formed(entry: object) -> bool:
    """Can an ACL store ``entry``?

    The shape check for entries from peers and the stable store: an
    :class:`AclEntry` with strings where strings belong, a :class:`Right`,
    a ``bool`` and an ``int`` counter in ``[0, 2**63)``.  Anything else
    would fail part-way through ``apply``.  It says nothing about whether
    an in-range counter is honest.
    """
    if type(entry) is not AclEntry or type(entry.version) is not Version:
        return False
    counter = entry.version.counter
    return (
        type(entry.user) is str
        and type(entry.right) is Right
        and type(entry.granted) is bool
        and type(counter) is int
        and 0 <= counter < 2**63  # a signed 64-bit ACL column
        and type(entry.version.origin) is str
    )
