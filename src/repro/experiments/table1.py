"""Table 1: "Effects of C on availability and security".

The paper fixes ``M = 10`` managers, varies the check quorum ``C`` from
1 to 10, and evaluates ``PA(C)`` and ``PS(C)`` for ``Pi = 0.1`` and
``Pi = 0.2``.  This runner regenerates the table; the values are exact
binomials and must equal the paper's printed five-decimal numbers
(asserted in ``tests/test_experiments/test_paper_tables.py``).
"""

from __future__ import annotations

from typing import List, Sequence

from ..analysis.quorum_math import availability, security
from .base import ExperimentResult

__all__ = ["run", "PAPER_TABLE1", "pa_ps", "pa_ps_columns"]

#: The paper's printed Table 1, verbatim:
#: C -> (PA at Pi=0.1, PS at Pi=0.1, PA at Pi=0.2, PS at Pi=0.2)
PAPER_TABLE1 = {
    1: (1.00000, 0.38742, 1.00000, 0.13422),
    2: (1.00000, 0.77484, 1.00000, 0.43621),
    3: (1.00000, 0.94703, 0.99992, 0.73820),
    4: (0.99999, 0.99167, 0.99914, 0.91436),
    5: (0.99985, 0.99911, 0.99363, 0.98042),
    6: (0.99837, 0.99994, 0.96721, 0.99693),
    7: (0.98720, 1.00000, 0.87913, 0.99969),
    8: (0.92981, 1.00000, 0.67780, 0.99998),
    9: (0.73610, 1.00000, 0.37581, 1.00000),
    10: (0.34868, 1.00000, 0.10737, 1.00000),
}


def pa_ps_columns(pis: Sequence[float]) -> List[str]:
    """The ``PA(C)``/``PS(C)`` column pair for each ``Pi``."""
    return [name for pi in pis for name in (f"PA(C) Pi={pi}", f"PS(C) Pi={pi}")]


def pa_ps(m: int, c: int, pis: Sequence[float]) -> List[float]:
    """``PA`` and ``PS`` of ``(M, C)`` at each ``Pi``: one table row's cells."""
    return [p for pi in pis for p in (availability(m, c, pi), security(m, c, pi))]


def run(m: int = 10, pis=(0.1, 0.2)) -> ExperimentResult:
    """Regenerate Table 1."""
    columns = ["C", *pa_ps_columns(pis)]
    rows = [[c, *pa_ps(m, c, pis)] for c in range(1, m + 1)]
    return ExperimentResult(
        experiment_id="table1",
        title="Effects of C on availability and security (paper Table 1)",
        columns=columns,
        rows=rows,
        notes=(
            "Exact binomial evaluation; matches the paper's printed values "
            "to all five decimals."
        ),
        params={"M": m, "Pi": list(pis)},
    )
