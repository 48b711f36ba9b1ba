"""Statistical helpers shared by the metric accumulators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["SummaryStats", "percentile", "wilson_interval"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    # a + w*(b - a) is exact when a == b (unlike the two-product form).
    return ordered[low] + weight * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    n: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4f} p50={self.p50:.4f} "
            f"p95={self.p95:.4f} p99={self.p99:.4f} "
            f"min={self.minimum:.4f} max={self.maximum:.4f}"
        )


def wilson_interval(successes: int, trials: int, z: float = 1.96
                    ) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Used for the simulated availability/security estimates so that
    EXPERIMENTS.md can state whether the analytic value falls inside
    the simulation's confidence band.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))
