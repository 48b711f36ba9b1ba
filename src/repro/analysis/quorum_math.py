"""Closed-form availability and security of the quorum protocol.

Section 4.1 of the paper, under the simplified model: "the probability
of a site s1 being inaccessible from site s2 ... is identical and
independent for any two sites.  Let this probability be denoted by Pi."
With ``R = infinity`` (access allowed only once the check quorum is
reached):

* ``PA(C)`` — availability: "the probability that at least C out of M
  managers are accessible to the host that issues the access control
  query"::

      PA(C) = sum_{k=C}^{M} (M choose k) (1-Pi)^k Pi^(M-k)

* ``PS(C)`` — security: "the probability that the manager that issues a
  revoke operation can access at least M-C managers out of the other
  M-1 managers" (i.e. an update quorum of M-C+1 counting itself)::

      PS(C) = sum_{k=M-C}^{M-1} (M-1 choose k) (1-Pi)^k Pi^(M-1-k)

These are pure binomial tails; Table 1 and Table 2 of the paper are
direct evaluations and this module reproduces them to the printed five
decimal places (see ``tests/test_analysis/test_paper_tables.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

__all__ = [
    "binomial_tail",
    "availability",
    "security",
    "QuorumPoint",
    "quorum_curve",
    "best_check_quorum",
]


def binomial_tail(n: int, k: int, p: float) -> float:
    """P[Binomial(n, p) >= k], evaluated exactly.

    ``k <= 0`` gives 1.0; ``k > n`` gives 0.0.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    total = 0.0
    for j in range(k, n + 1):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return min(1.0, total)


def _validate(m: int, c: int, pi: float) -> None:
    if m < 1:
        raise ValueError(f"M must be >= 1, got {m}")
    if not 1 <= c <= m:
        raise ValueError(f"C must be in [1, M={m}], got {c}")
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"Pi must be in [0, 1], got {pi}")


def availability(m: int, c: int, pi: float) -> float:
    """``PA(C)``: P[a host reaches at least C of the M managers]."""
    _validate(m, c, pi)
    return binomial_tail(m, c, 1.0 - pi)


def security(m: int, c: int, pi: float) -> float:
    """``PS(C)``: P[a revoking manager reaches its update quorum].

    The issuing manager counts toward the quorum of ``M - C + 1``, so
    it needs ``M - C`` of the other ``M - 1`` managers.
    """
    _validate(m, c, pi)
    return binomial_tail(m - 1, m - c, 1.0 - pi)


@dataclass(frozen=True)
class QuorumPoint:
    """One point of the paper's Figure 5 curves."""

    m: int
    c: int
    pi: float
    availability: float
    security: float

    @property
    def worst(self) -> float:
        """min(PA, PS) — the quantity a balanced policy maximises."""
        return min(self.availability, self.security)


def quorum_curve(m: int, pi: float, cs: Optional[Iterable[int]] = None
                 ) -> List[QuorumPoint]:
    """``PA`` and ``PS`` for each check quorum (Figure 5 / Table 1)."""
    if cs is None:
        cs = range(1, m + 1)
    return [
        QuorumPoint(
            m=m,
            c=c,
            pi=pi,
            availability=availability(m, c, pi),
            security=security(m, c, pi),
        )
        for c in cs
    ]


def best_check_quorum(m: int, pi: float) -> QuorumPoint:
    """The C maximising min(PA, PS) — the paper's observation that
    "there is a relatively large range of values of C around M/2 where
    both availability and security are very close to 1"."""
    return max(quorum_curve(m, pi), key=lambda point: point.worst)
