"""Measurement of simulated runs: availability, security, overhead, latency.

One collector per quantity, all in :mod:`.streaming`: each consumes
observations one at a time and merges with its peers, so no run keeps
a per-decision list to re-scan.
"""

from .estimators import SummaryStats, percentile, wilson_interval
from .streaming import (
    CONTROL_MESSAGE_KINDS,
    AvailabilityAccumulator,
    AvailabilityReport,
    ExactSum,
    LatencyAccumulator,
    Mergeable,
    OverheadAccumulator,
    OverheadReport,
    StalenessAccumulator,
    StreamingSummary,
)
from .timeline import TimelinePoint, availability_timeline, sparkline

__all__ = [
    "CONTROL_MESSAGE_KINDS",
    "AvailabilityAccumulator",
    "AvailabilityReport",
    "ExactSum",
    "LatencyAccumulator",
    "Mergeable",
    "OverheadAccumulator",
    "OverheadReport",
    "StalenessAccumulator",
    "StreamingSummary",
    "SummaryStats",
    "TimelinePoint",
    "percentile",
    "availability_timeline",
    "sparkline",
    "wilson_interval",
]
