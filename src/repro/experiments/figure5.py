"""Figure 5: "Availability and security curves".

The paper's figure plots ``PA`` and ``PS`` as a function of the check
quorum ``C`` from 1 to ``M``, showing that "although security can be
very low with C close to 1 and availability can be very low with C
close to M, there is a relatively large range of values of C around
M/2 where both availability and security are very close to 1."
"""

from __future__ import annotations

from ..analysis.quorum_math import quorum_curve
from .base import ExperimentResult, ascii_plot

__all__ = ["run"]


def run(m: int = 10, pi: float = 0.1) -> ExperimentResult:
    """Compute the Figure 5 curves for ``M`` managers at inaccessibility ``Pi``."""
    points = quorum_curve(m, pi)
    rows = [[p.c, p.availability, p.security, p.worst] for p in points]
    plot = ascii_plot(
        {
            "PA": [p.availability for p in points],
            "PS": [p.security for p in points],
        },
        x_values=[p.c for p in points],
    )
    best = max(points, key=lambda p: p.worst)
    return ExperimentResult(
        experiment_id="figure5",
        title="Availability and security curves (paper Figure 5)",
        columns=["C", "PA(C)", "PS(C)", "min(PA,PS)"],
        rows=rows,
        extra_text=plot,
        notes=(
            f"Best balanced check quorum: C={best.c} with "
            f"min(PA,PS)={best.worst:.5f} — near M/2={m / 2:.0f}, as the "
            "paper observes."
        ),
        params={"M": m, "Pi": pi},
    )
