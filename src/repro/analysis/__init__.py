"""Analytic models from Section 4.1 of the paper.

* :mod:`~repro.analysis.quorum_math` — exact ``PA(C)`` / ``PS(C)``
  binomials behind Figure 5 and Tables 1–2.
* :mod:`~repro.analysis.costs` — the ``O(C/Te)`` / ``O(C)`` / ``O(R)``
  cost model.
* :mod:`~repro.analysis.heterogeneous` — heterogeneous and correlated
  inaccessibility estimation (Poisson-binomial and Monte-Carlo).
"""

from .costs import (
    CostModel,
    miss_delay,
    steady_state_check_rate,
    steady_state_message_rate,
    worst_case_delay,
)
from .heterogeneous import (
    CorrelatedInaccessibility,
    PairwiseInaccessibility,
    poisson_binomial_tail,
    weighted_average,
)
from .quorum_math import (
    QuorumPoint,
    availability,
    best_check_quorum,
    binomial_tail,
    quorum_curve,
    security,
)
from .weighted import (
    WeightedQuorumSystem,
    best_thresholds,
    best_unit_counts,
    weight_tail,
)

__all__ = [
    "CorrelatedInaccessibility",
    "CostModel",
    "PairwiseInaccessibility",
    "QuorumPoint",
    "availability",
    "best_check_quorum",
    "binomial_tail",
    "miss_delay",
    "poisson_binomial_tail",
    "quorum_curve",
    "security",
    "steady_state_check_rate",
    "steady_state_message_rate",
    "weight_tail",
    "weighted_average",
    "worst_case_delay",
    "WeightedQuorumSystem",
    "best_thresholds",
    "best_unit_counts",
]
