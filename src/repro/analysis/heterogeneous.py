"""Heterogeneous and correlated inaccessibility analysis.

The closing paragraph of Section 4.1: "In most realistic systems, site
inaccessibility probabilities are much more heterogeneous than assumed
above and furthermore, the probabilities are often dependent on one
another ... If the pairwise inaccessibility probabilities as well as
the dependencies between these probabilities can be estimated, it is
possible to calculate for each host the probability of reaching the
check quorum and for each manager the probability of reaching the
update quorum.  The system availability and security can be estimated
by averaging these probabilities.  Furthermore, if the frequency of
accesses at the hosts and the frequency of issuing access control
operations at the managers are known, the average can be weighted using
these frequencies."

This module implements the parts of that calculation the
``heterogeneous`` experiment reports:

* :class:`PairwiseInaccessibility` — per-(manager, manager) independent
  probabilities; update-quorum reach is an exact Poisson-binomial tail
  (dynamic programming, no sampling), and system security its
  frequency-weighted mean per the quoted paragraph.
* :class:`CorrelatedInaccessibility` — a common-cause mixture model
  (link failures that take out several managers at once), its check-
  quorum availability evaluated by Monte-Carlo because the exact joint
  distribution is exponential in M.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

__all__ = [
    "poisson_binomial_tail",
    "PairwiseInaccessibility",
    "CorrelatedInaccessibility",
    "weighted_average",
]


def poisson_binomial_tail(probs: Sequence[float], k: int) -> float:
    """P[at least k successes] for independent Bernoulli(p_i) trials.

    Exact O(n^2) dynamic programming over the count distribution.
    """
    n = len(probs)
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
    # dist[j] = P[j successes among trials seen so far]
    dist = [1.0] + [0.0] * n
    seen = 0
    for p in probs:
        seen += 1
        for j in range(seen, 0, -1):
            dist[j] = dist[j] * (1.0 - p) + dist[j - 1] * p
        dist[0] *= 1.0 - p
    return min(1.0, sum(dist[k:]))


def weighted_average(values: Mapping[str, float],
                     weights: Optional[Mapping[str, float]] = None) -> float:
    """Frequency-weighted mean (uniform when no weights are given)."""
    if not values:
        raise ValueError("no values to average")
    if weights is None:
        return sum(values.values()) / len(values)
    total_weight = 0.0
    total = 0.0
    for key, value in values.items():
        weight = weights.get(key, 0.0)
        total += weight * value
        total_weight += weight
    if total_weight <= 0:
        raise ValueError("weights sum to zero over the given values")
    return total / total_weight


@dataclass
class PairwiseInaccessibility:
    """Heterogeneous but independent pairwise inaccessibility between
    managers.

    Parameters
    ----------
    managers:
        Manager site names (defines ``M``).
    manager_to_manager:
        ``pi[a][b]`` — probability that manager ``b`` is inaccessible
        from manager ``a``.
    """

    managers: Sequence[str]
    manager_to_manager: Mapping[str, Mapping[str, float]]

    @property
    def m(self) -> int:
        return len(self.managers)

    def manager_security(self, origin: str, check_quorum: int) -> float:
        """P[``origin`` reaches its update quorum of M - C + 1
        (itself plus M - C of the other M - 1 managers)]."""
        others = [m for m in self.managers if m != origin]
        probs = [1.0 - self.manager_to_manager[origin][other] for other in others]
        return poisson_binomial_tail(probs, self.m - check_quorum)

    def system_security(
        self,
        check_quorum: int,
        update_frequency: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Frequency-weighted mean security over all managers.

        The paper's warning applies here: "even if there is one manager
        that is frequently inaccessible from the others, the overall
        security of the system can be seriously reduced if this manager
        frequently issues and revokes access rights."
        """
        per_manager = {
            origin: self.manager_security(origin, check_quorum)
            for origin in self.managers
        }
        return weighted_average(per_manager, update_frequency)


@dataclass
class CorrelatedInaccessibility:
    """Common-cause dependence: "the failure of one communication link
    may make several managers inaccessible."

    Each manager ``j`` is inaccessible from an observer when its
    private link is down (probability ``private_pi[j]``) **or** when a
    shared event covering its group is active (probability
    ``shared_pi[g]`` for group ``g``).  Groups model managers behind a
    common WAN link.
    """

    managers: Sequence[str]
    private_pi: Mapping[str, float]
    groups: Mapping[str, str]  # manager -> group name
    shared_pi: Mapping[str, float]  # group -> event probability

    def marginal_pi(self, manager: str) -> float:
        """Marginal inaccessibility of one manager."""
        p_private = self.private_pi[manager]
        p_shared = self.shared_pi.get(self.groups.get(manager, ""), 0.0)
        return 1.0 - (1.0 - p_private) * (1.0 - p_shared)

    def sample_inaccessible(self, rng: random.Random) -> Dict[str, bool]:
        """One joint draw of which managers are inaccessible."""
        active_events = {
            group: rng.random() < p for group, p in self.shared_pi.items()
        }
        return {
            manager: (
                rng.random() < self.private_pi[manager]
                or active_events.get(self.groups.get(manager, ""), False)
            )
            for manager in self.managers
        }

    def availability(
        self, check_quorum: int, rng: random.Random, samples: int = 20_000
    ) -> float:
        """Monte-Carlo P[at least C managers accessible]."""
        m = len(self.managers)
        hits = 0
        for _ in range(samples):
            down = self.sample_inaccessible(rng)
            accessible = m - sum(down.values())
            if accessible >= check_quorum:
                hits += 1
        return hits / samples
