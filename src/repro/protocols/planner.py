"""The query planner: how a host gathers one round of manager responses.

One round walks a list of manager *batches*: send a batch, wait until
the :class:`~repro.protocols.combiner.ResponseCombiner` calls the round
complete, every query of the batch is answered, or the batch's
``query_timeout`` fires — then move to the next batch.  A
:class:`~repro.core.policy.QueryStrategy` is nothing but the function
that cuts ``Managers(A)`` into batches:

* ``SEQUENTIAL`` — ``[m1], [m2], ...``: Figure 2's "send query to a
  manager in Managers(A)", one at a time;
* ``PARALLEL`` — ``[all M]``: one fan-out, one timer;
* ``QUORUM`` (the default) — ``[C preferred + the silent ones],
  [everyone not yet asked]``: the paper's ``O(C)`` miss when the cell is
  healthy, widening to the rest when the first batch falls short.

"Preferred" is a per-host rotation, so query load and pairwise answer
keys stay spread over the manager set.  A manager that let a batch
timer fire is *silent*: it moves to the back of that order until the
host hears any ``QueryResponse`` from it again, and meanwhile rides
along in the first batch as an extra, so a healed manager is
rediscovered by the next miss with no probe of its own.  The silent set
only orders whom to ask; a decision still needs ``C`` answers.

Responses arriving after their batch's timer are discarded by the
host's :class:`~repro.protocols.messaging.ReplyTable`, per the paper:
"only accepting access control messages if they arrive before a
timeout of a timer set at the time the query ... was sent."
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..core.messages import QueryRequest, QueryResponse
from ..core.policy import AccessPolicy, QueryStrategy
from ..core.rights import Right
from ..sim.trace import TraceKind
from .combiner import ResponseCombiner

__all__ = ["QueryPlanner", "planner_for"]


class QueryPlanner:
    """One query round over the batches ``cut(host, managers, required)``
    returns, in order.

    ``run_round`` is a process generator returning the list of
    :class:`QueryResponse` gathered.  ``host`` supplies the substrate:
    ``env``, ``send_many``, ``tracer``, the pending-reply table, the
    round-rotation counter and the silent set.
    """

    def __init__(self, cut: Callable[[object, Sequence[str], int], List[List[str]]]):
        self.cut = cut

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
        env, tracer, pending = host.env, host.tracer, host._pending_queries
        wants_sent = tracer.wants(TraceKind.QUERY_SENT)
        done = None
        outstanding = 0

        def on_response(response: QueryResponse) -> None:
            nonlocal outstanding
            responses.append(response)
            outstanding -= 1
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
            if not done.triggered and (
                combiner.round_complete(responses, required) or not outstanding
            ):
                done.succeed()

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

        for batch in self.cut(host, managers, required):
            if combiner.round_complete(responses, required):
                break
            done = env.event()
            outstanding = len(batch)
            asked: Dict[int, str] = {}
            items = []
            for manager in batch:
                qid = pending.allocate(on_response)
                asked[qid] = manager
                items.append(
                    (manager, QueryRequest(qid, application, user, right, *host.key_offer(manager)))
                )
            # A batch lands at one timestamp under constant latency, so
            # it is one scheduler insertion; ``on_sent`` keeps the
            # per-manager QUERY_SENT trace interleaved with MSG_SENT.
            host.send_many(items, on_sent)
            timer = env.timeout(policy.query_timeout)
            yield env.any_of([done, timer])
            timer.cancel()  # dead once the answers won the race
            timed_out = not done.triggered
            for qid, manager in asked.items():  # discard late responses
                if timed_out and qid in pending:
                    host._silent.add(manager)
                pending.discard(qid)
        return responses


def _rotated(host, managers: Sequence[str]) -> List[str]:
    """``managers`` starting one further along on each round (retries of
    one check and successive checks alike)."""
    offset = next(host._rounds) % len(managers)
    return list(managers[offset:]) + list(managers[:offset])


def _parallel(host, managers, required):
    return [list(managers)]


def _sequential(host, managers, required):
    return [[manager] for manager in _rotated(host, managers)]


def _quorum(host, managers, required):
    silent = host._silent
    # Stable sort on a bool: rotation order, silent managers last.
    ordered = sorted(_rotated(host, managers), key=silent.__contains__)
    first = ordered[:required] + [m for m in ordered[required:] if m in silent]
    rest = [m for m in ordered[required:] if m not in silent]
    return [first, rest] if rest else [first]


_PLANNERS = {
    QueryStrategy.SEQUENTIAL: QueryPlanner(_sequential),
    QueryStrategy.PARALLEL: QueryPlanner(_parallel),
    QueryStrategy.QUORUM: QueryPlanner(_quorum),
}


def planner_for(policy: AccessPolicy) -> QueryPlanner:
    """The planner a policy's ``query_strategy`` selects."""
    return _PLANNERS[policy.query_strategy]


# ``bench_e2e/layers.py`` (editable only by a [benchmark] PR, ROADMAP
# item 5a) imports these two names and spans ``run_round`` on each.  The
# first *is* the planner; the second is an empty subclass nothing
# instantiates, so every round is spanned exactly once.
ParallelPlanner = QueryPlanner


class SequentialPlanner(QueryPlanner):
    pass
