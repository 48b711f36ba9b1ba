"""Query planners: how a host gathers one round of manager responses.

A planner runs a single verification round against ``Managers(A)`` and
returns the responses it gathered; the
:class:`~repro.protocols.combiner.ResponseCombiner` decides when the
round may stop early and whether its harvest is decisive.  Late
responses — arriving after the round's timers — are discarded by the
host's :class:`~repro.protocols.messaging.ReplyTable`, per the paper:
"only accepting access control messages if they arrive before a
timeout of a timer set at the time the query ... was sent."
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.messages import QueryRequest, QueryResponse
from ..core.policy import AccessPolicy, QueryStrategy
from ..core.rights import Right
from ..sim.trace import TraceKind
from .combiner import ResponseCombiner
from .messaging import request

__all__ = [
    "QueryPlanner",
    "ParallelPlanner",
    "SequentialPlanner",
    "planner_for",
]


class QueryPlanner:
    """Strategy interface for one query round.

    ``run_round`` is a process generator returning the list of
    :class:`QueryResponse` gathered.  ``host`` supplies the substrate:
    ``env``, ``send``, ``tracer``, the pending-reply table, and the
    per-host round-rotation counter.
    """

    def run_round(
        self,
        host,
        application: str,
        user: str,
        right: Right,
        managers: Sequence[str],
        required: int,
        policy: AccessPolicy,
        attempt: int,
        combiner: ResponseCombiner,
    ):
        raise NotImplementedError


class ParallelPlanner(QueryPlanner):
    """Fan out to every manager at once; proceed when the combiner is
    satisfied or the round's single timer fires."""

    def run_round(
        self,
        host,
        application: str,
        user: str,
        right: Right,
        managers: Sequence[str],
        required: int,
        policy: AccessPolicy,
        attempt: int,
        combiner: ResponseCombiner,
    ):
        responses: List[QueryResponse] = []
        done = host.env.event()
        query_ids: List[int] = []

        def on_response(response: QueryResponse) -> None:
            responses.append(response)
            tracer = host.tracer
            if tracer.wants(TraceKind.QUERY_ANSWERED):
                tracer.publish(
                    TraceKind.QUERY_ANSWERED,
                    host.address,
                    application=application,
                    manager=response.manager,
                    verdict=response.verdict,
                )
            else:
                tracer.bump(TraceKind.QUERY_ANSWERED)
            if combiner.round_complete(responses, required) and not done.triggered:
                done.succeed()

        tracer = host.tracer
        wants_sent = tracer.wants(TraceKind.QUERY_SENT)
        # The whole fan-out lands at one timestamp under constant
        # latency, so it is sent as a single batch (one scheduler
        # insertion); ``on_sent`` keeps the per-manager QUERY_SENT
        # trace interleaved exactly as the unbatched loop emitted it.
        items = []
        for manager in managers:
            qid = host._pending_queries.allocate(on_response)
            query_ids.append(qid)
            items.append(
                (
                    manager,
                    QueryRequest(qid, application, user, right, *host.key_offer(manager)),
                )
            )

        def on_sent(manager: str, _message) -> None:
            if wants_sent:
                tracer.publish(
                    TraceKind.QUERY_SENT,
                    host.address,
                    application=application,
                    manager=manager,
                    user=user,
                )
            else:
                tracer.bump(TraceKind.QUERY_SENT)

        host.send_many(items, on_sent)
        timer = host.env.timeout(policy.query_timeout)
        yield host.env.any_of([done, timer])
        timer.cancel()  # dead once the quorum won the race
        for qid in query_ids:  # discard late responses
            host._pending_queries.discard(qid)
        return responses


class SequentialPlanner(QueryPlanner):
    """Figure 2 style: "send query to a manager in Managers(A)" one at
    a time.  The starting manager rotates across rounds (both retries
    of one check and successive checks), spreading query load over the
    manager set."""

    def run_round(
        self,
        host,
        application: str,
        user: str,
        right: Right,
        managers: Sequence[str],
        required: int,
        policy: AccessPolicy,
        attempt: int,
        combiner: ResponseCombiner,
    ):
        responses: List[QueryResponse] = []
        offset = next(host._sequential_rounds) % len(managers)
        ordered = list(managers[offset:]) + list(managers[:offset])
        tracer = host.tracer

        def trace_sent(manager: str) -> None:
            if tracer.wants(TraceKind.QUERY_SENT):
                tracer.publish(
                    TraceKind.QUERY_SENT,
                    host.address,
                    application=application,
                    manager=manager,
                    user=user,
                )
            else:
                tracer.bump(TraceKind.QUERY_SENT)

        for manager in ordered:
            if combiner.round_complete(responses, required):
                break
            response = yield from request(
                host,
                host._pending_queries,
                manager,
                lambda qid, manager=manager: QueryRequest(
                    qid, application, user, right, *host.key_offer(manager)
                ),
                policy.query_timeout,
                on_sent=lambda manager=manager: trace_sent(manager),
            )
            if response is not None:
                responses.append(response)
                if tracer.wants(TraceKind.QUERY_ANSWERED):
                    tracer.publish(
                        TraceKind.QUERY_ANSWERED,
                        host.address,
                        application=application,
                        manager=response.manager,
                        verdict=response.verdict,
                    )
                else:
                    tracer.bump(TraceKind.QUERY_ANSWERED)
        return responses


_PARALLEL = ParallelPlanner()
_SEQUENTIAL = SequentialPlanner()


def planner_for(policy: AccessPolicy) -> QueryPlanner:
    """The planner a policy's ``query_strategy`` selects."""
    if policy.query_strategy is QueryStrategy.PARALLEL:
        return _PARALLEL
    return _SEQUENTIAL
