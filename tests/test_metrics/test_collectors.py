"""Behaviour of the metric collectors: the streaming accumulators fed
real observed decisions, a real ``Tracer`` and a real oracle."""

from __future__ import annotations

import pytest

from repro.core.host import AccessDecision, DecisionReason
from repro.core.rights import Right
from repro.metrics.streaming import (
    AvailabilityAccumulator,
    LatencyAccumulator,
    OverheadAccumulator,
    StalenessAccumulator,
)
from repro.sim.trace import TraceKind
from repro.workloads.generators import AuthorizationOracle, ObservedDecision

APP = "app"


def observed(user, allowed, authorized, time=0.0, latency=0.1,
             reason=DecisionReason.VERIFIED):
    return ObservedDecision(
        time=time,
        host="h0",
        user=user,
        application=APP,
        decision=AccessDecision(
            application=APP,
            user=user,
            right=Right.USE,
            allowed=allowed,
            reason=reason if allowed or reason != DecisionReason.VERIFIED
            else DecisionReason.DENIED,
            attempts=1,
            responses=2,
            latency=latency,
        ),
        authorized=authorized,
    )


def availability(observations, latency_bound=None):
    accumulator = AvailabilityAccumulator(latency_bound)
    for decision in observations:
        accumulator.observe(decision)
    return accumulator.report()


class TestAvailabilityReport:
    def test_counts_authorized_only(self):
        report = availability(
            [
                observed("a", allowed=True, authorized=True),
                observed("b", allowed=False, authorized=True),
                observed("c", allowed=False, authorized=False),
            ]
        )
        assert report.authorized_attempts == 2
        assert report.authorized_allowed == 1
        assert report.availability == pytest.approx(0.5)

    def test_latency_bound_tightens_timeliness(self):
        observations = [
            observed("a", allowed=True, authorized=True, latency=0.1),
            observed("b", allowed=True, authorized=True, latency=5.0),
        ]
        assert availability(observations).availability == 1.0
        report = availability(observations, latency_bound=1.0)
        assert report.availability == pytest.approx(0.5)

    def test_unauthorized_allows_counted(self):
        report = availability(
            [observed("x", allowed=True, authorized=False,
                      reason=DecisionReason.DEFAULT_ALLOW)]
        )
        assert report.unauthorized_allowed == 1

    def test_empty_is_vacuously_available(self):
        report = availability([])
        assert report.availability == 1.0
        assert report.confidence == (0.0, 1.0)


class TestStaleness:
    def test_te_violation_detection(self):
        oracle = AuthorizationOracle(expiry_bound=10.0)
        oracle.grant(APP, "u")
        oracle.revoke(APP, "u", time=100.0)
        staleness = StalenessAccumulator()
        # inside the grace window
        staleness.observe(observed("u", allowed=True, authorized=False, time=105.0))
        # past revoke + Te: a violation
        staleness.observe(observed("u", allowed=True, authorized=False, time=120.0))
        assert staleness.finalize(oracle) == (1, 1)


class TestOverheadReport:
    def test_classifies_control_vs_app(self, env, tracer):
        collector = OverheadAccumulator(tracer)
        for kind in ("QueryRequest", "QueryResponse", "AppRequest"):
            tracer.publish(TraceKind.MSG_SENT, "n", dst="x", message_kind=kind)
        report = collector.report(duration=10.0)
        assert report.control_messages == 2
        assert report.app_messages == 1
        assert report.control_rate == pytest.approx(0.2)
        assert report.by_kind["QueryRequest"] == 1

    def test_zero_duration_rejected(self, env, tracer):
        with pytest.raises(ValueError):
            OverheadAccumulator(tracer).report(duration=0.0)


class TestLatencyByReason:
    def test_buckets_by_reason(self):
        accumulator = LatencyAccumulator()
        for decision in (
            observed("a", allowed=True, authorized=True, latency=0.0,
                     reason=DecisionReason.CACHE),
            observed("b", allowed=True, authorized=True, latency=0.2,
                     reason=DecisionReason.VERIFIED),
            observed("c", allowed=True, authorized=True, latency=0.4,
                     reason=DecisionReason.VERIFIED),
        ):
            accumulator.observe(decision.decision.reason, decision.decision.latency)
        buckets = accumulator.summaries()
        assert buckets[DecisionReason.CACHE].mean == 0.0
        assert buckets[DecisionReason.VERIFIED].n == 2
        assert buckets[DecisionReason.VERIFIED].mean == pytest.approx(0.3)

    def test_empty(self):
        assert LatencyAccumulator().summaries() == {}
