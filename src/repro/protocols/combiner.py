"""Response combiners: how one round's answers become a verdict.

A combiner judges the responses a query round gathered.  It decides
both when a round may stop early (:meth:`ResponseCombiner.round_complete`)
and which response — if any — is decisive
(:meth:`ResponseCombiner.combine`).  ``None`` from ``combine`` means
the round failed and the host retries, exactly like a timeout.

Members of the family:

* :class:`HighestVersionCombiner` — the paper's crash-only rule: any
  ``C`` responses suffice, the highest version wins (the update-quorum
  intersection guarantees it reflects the latest committed operation).
* :class:`ByzantineVouchCombiner` — footnote 2's extension: a
  (verdict, version) pair needs ``f + 1`` vouchers before it is
  believed, so ``f`` liars can neither forge a grant nor force a
  denial by themselves.
* :class:`WeightedVoteCombiner` — weighted voting (the
  ``weighted_quorums`` extension): each manager carries a vote weight
  and a verdict needs ``check_threshold`` votes, which generalizes
  count quorums to heterogeneous manager reliability.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..core.messages import QueryResponse
from ..core.policy import AccessPolicy

__all__ = [
    "ResponseCombiner",
    "HighestVersionCombiner",
    "ByzantineVouchCombiner",
    "WeightedVoteCombiner",
    "combiner_for",
]


class ResponseCombiner:
    """Strategy interface for judging one verification round.

    Each combiner defines ``combine(responses, required)``: the decisive
    response, or ``None`` if the round failed."""

    def round_complete(
        self, responses: Sequence[QueryResponse], required: int
    ) -> bool:
        """May the round stop gathering?  Default: count quorum met."""
        return len(responses) >= required


class HighestVersionCombiner(ResponseCombiner):
    """Crash-only mode: the response with the highest version wins."""

    def combine(
        self, responses: Sequence[QueryResponse], required: int
    ) -> Optional[QueryResponse]:
        if len(responses) < required:
            return None
        return max(responses, key=lambda r: r.version)


class ByzantineVouchCombiner(ResponseCombiner):
    """Byzantine mode (``f > 0``): a (verdict, version) pair needs at
    least ``f + 1`` vouchers to be believed; among sufficiently vouched
    pairs the highest version wins."""

    def __init__(self, f: int):
        if f < 1:
            raise ValueError(f"byzantine combiner needs f >= 1, got {f}")
        self.f = f

    def combine(
        self, responses: Sequence[QueryResponse], required: int
    ) -> Optional[QueryResponse]:
        if len(responses) < required:
            return None
        support: Counter = Counter(
            (r.verdict, r.version) for r in responses
        )
        believed = [
            response
            for response in responses
            if support[(response.verdict, response.version)] >= self.f + 1
        ]
        if not believed:
            return None  # treat as a failed round; retry
        return max(believed, key=lambda r: r.version)


class WeightedVoteCombiner(ResponseCombiner):
    """Weighted voting over the manager set.

    ``weights`` maps manager address to vote weight; a round is
    decisive once the responses *for one (verdict, version) pair* carry
    at least ``check_threshold`` votes, and among decisive pairs the
    highest version wins.  With unit weights and
    ``check_threshold = C`` this degenerates to the paper's count
    quorum.  Pair with update thresholds from
    :class:`repro.analysis.weighted.WeightedQuorumSystem` so check and
    update quorums intersect (``Tc + Tu > total weight``).
    """

    def __init__(self, weights: Dict[str, float], check_threshold: float):
        if check_threshold <= 0:
            raise ValueError("check_threshold must be positive")
        if any(weight < 0 for weight in weights.values()):
            raise ValueError("weights must be non-negative")
        if sum(weights.values()) < check_threshold:
            raise ValueError(
                "total weight is below the check threshold; no round "
                "could ever complete"
            )
        self.weights = dict(weights)
        self.check_threshold = check_threshold

    def _vouched(
        self, responses: Sequence[QueryResponse]
    ) -> List[QueryResponse]:
        votes: Dict[tuple, float] = {}
        for response in responses:
            key = (response.verdict, response.version)
            votes[key] = votes.get(key, 0.0) + self.weights.get(
                response.manager, 0.0
            )
        return [
            response
            for response in responses
            if votes[(response.verdict, response.version)]
            >= self.check_threshold
        ]

    def round_complete(
        self, responses: Sequence[QueryResponse], required: int
    ) -> bool:
        return bool(self._vouched(responses))

    def combine(
        self, responses: Sequence[QueryResponse], required: int
    ) -> Optional[QueryResponse]:
        believed = self._vouched(responses)
        if not believed:
            return None
        return max(believed, key=lambda r: r.version)


def combiner_for(policy: AccessPolicy) -> ResponseCombiner:
    """The combiner an :class:`AccessPolicy` selects.

    ``byzantine_f > 0`` selects :class:`ByzantineVouchCombiner`;
    otherwise the paper's :class:`HighestVersionCombiner`.  Other
    combiners (e.g. :class:`WeightedVoteCombiner`) are composed by
    overriding the pipeline's ``combiner_factory``.
    """
    if policy.byzantine_f > 0:
        return ByzantineVouchCombiner(policy.byzantine_f)
    return HighestVersionCombiner()
