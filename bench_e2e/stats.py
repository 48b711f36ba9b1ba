"""Small statistics helpers shared by the workloads and the reports."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

__all__ = ["percentile", "median_of_slices"]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def median_of_slices(slices: List[Dict[str, float]], key: str) -> float:
    """The reported value of a per-slice metric: the median over slices."""
    return statistics.median(row[key] for row in slices)

