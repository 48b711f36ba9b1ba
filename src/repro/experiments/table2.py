"""Table 2: "Effects of M and C on availability and security".

The paper varies the number of managers ``M`` with the check quorum
fixed at ``C = 2`` (upper half: availability rises but security falls)
and with ``C`` scaled as roughly ``M/2`` (lower half: both improve),
for ``Pi = 0.1`` and ``0.2``.  "If it is impossible to satisfy both
availability and security goals given a set of managers, one way to
solve the problem is to increase the cardinality of this set."
"""

from __future__ import annotations

from .base import ExperimentResult
from .table1 import pa_ps, pa_ps_columns

__all__ = ["run", "PAPER_TABLE2"]

#: The paper's printed Table 2, verbatim:
#: (M, C) -> (PA at Pi=0.1, PS at Pi=0.1, PA at Pi=0.2, PS at Pi=0.2)
#: First five rows are the fixed-C half, last five the scaled-C half.
PAPER_TABLE2 = {
    (4, 2): (0.99630, 0.97200, 0.97280, 0.89600),
    (6, 2): (0.99994, 0.91854, 0.99840, 0.73728),
    (8, 2): (1.00000, 0.85031, 0.99992, 0.57672),
    (10, 2): (1.00000, 0.77484, 1.00000, 0.43621),
    (12, 2): (1.00000, 0.69736, 1.00000, 0.32212),
    (6, 3): (0.99873, 0.99144, 0.98304, 0.94208),
    (8, 4): (0.99957, 0.99727, 0.98959, 0.96666),
    (10, 5): (0.99985, 0.99911, 0.99363, 0.98042),
    (12, 6): (0.99995, 0.99970, 0.99610, 0.98835),
}

#: Row order as printed in the paper (fixed-C half then scaled-C half).
ROW_ORDER = [
    (4, 2), (6, 2), (8, 2), (10, 2), (12, 2),
    (4, 2), (6, 3), (8, 4), (10, 5), (12, 6),
]


def run(pis=(0.1, 0.2)) -> ExperimentResult:
    """Regenerate Table 2 (the (4,2) row appears in both halves, as
    printed in the paper)."""
    columns = ["M", "C", *pa_ps_columns(pis)]
    rows = [[m, c, *pa_ps(m, c, pis)] for m, c in ROW_ORDER]
    return ExperimentResult(
        experiment_id="table2",
        title="Effects of M and C on availability and security (paper Table 2)",
        columns=columns,
        rows=rows,
        notes=(
            "Upper half: increasing M at fixed C=2 trades security for "
            "availability.  Lower half: scaling C with M improves both.  "
            "Exact binomials; matches the paper's printed values."
        ),
        params={"Pi": list(pis)},
    )
