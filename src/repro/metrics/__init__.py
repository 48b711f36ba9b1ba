"""Measurement of simulated runs: availability, security, overhead, latency.

One collector per quantity, all in :mod:`.streaming`: each consumes
observations one at a time, so no run keeps a per-decision list to
re-scan.
"""

from .estimators import SummaryStats, percentile, wilson_interval
from .streaming import (
    CONTROL_MESSAGE_KINDS,
    AvailabilityAccumulator,
    AvailabilityReport,
    ExactSum,
    OverheadAccumulator,
    OverheadReport,
    StalenessAccumulator,
    StreamingSummary,
)

__all__ = [
    "CONTROL_MESSAGE_KINDS",
    "AvailabilityAccumulator",
    "AvailabilityReport",
    "ExactSum",
    "OverheadAccumulator",
    "OverheadReport",
    "StalenessAccumulator",
    "StreamingSummary",
    "SummaryStats",
    "percentile",
    "wilson_interval",
]
