"""Shared request/reply and retry messaging substrate.

Host query rounds, user and admin client requests, manager revocation forwarding, and the comparison baselines'
query rounds and revocation retries all follow the same two wire
patterns the paper relies on:

* **request/reply with a timer** — send a request carrying a fresh id,
  accept the matching reply only "if [it] arrive[s] before a timeout of
  a timer set at the time the query ... was sent", discard it
  otherwise;
* **retry-until-acked** — resend a notification on a fixed pacing until
  the recipient acks or a deadline passes (revocation forwarding,
  Section 3.4).

This module gives both patterns one implementation so the protocol
strategies stop hand-rolling pending tables and timer races: every
reply reaches its waiter through a :class:`ReplyTable`, every waiter
waits on one event with :func:`wait_reply`, and :func:`request` serves
both clients.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

__all__ = [
    "ReplyTable",
    "ReplyTimeout",
    "request",
    "reply_deadline",
    "reply_won",
    "wait_reply",
    "retry_until_acked",
]


class ReplyTable:
    """Pending-request table: request id -> reply callback.

    Allocates monotonically increasing ids and routes each reply to its
    registered callback exactly once; replies arriving after
    :meth:`discard` (the timer fired first) are dropped, which is the
    paper's late-response rule.
    """

    def __init__(self, start: int = 1):
        self._ids = itertools.count(start)
        self._pending: Dict[int, Callable[[Any], None]] = {}

    def allocate(self, callback: Callable[[Any], None]) -> int:
        """Register ``callback`` under a fresh request id."""
        request_id = next(self._ids)
        self._pending[request_id] = callback
        return request_id

    def dispatch(self, request_id: int, reply: Any) -> bool:
        """Route ``reply`` to its waiting callback; False if unknown
        (already discarded or never issued — a late response)."""
        callback = self._pending.pop(request_id, None)
        if callback is None:
            return False
        callback(reply)
        return True

    def discard(self, request_id: int) -> None:
        """Stop accepting replies for ``request_id``."""
        self._pending.pop(request_id, None)

    def clear(self) -> None:
        """Drop every pending entry (crash semantics)."""
        self._pending.clear()

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._pending

    def __repr__(self) -> str:
        return f"<ReplyTable pending={len(self._pending)}>"


class ReplyTimeout(Exception):
    """Thrown into the process waiting on a reply whose timer fired first."""


def _expire(timer) -> None:
    arrival = timer.value
    if not arrival.triggered:
        arrival.fail(ReplyTimeout())


def request(
    node,
    table: ReplyTable,
    dest: str,
    build_message: Callable[[int], Any],
    timeout: float,
    on_sent: Optional[Callable[[], None]] = None,
):
    """One request/reply exchange with the paper's timer rule.

    Process generator: allocates an id, sends ``build_message(id)`` to
    ``dest``, and waits until the reply arrives or ``timeout`` elapses.
    Returns the reply, or ``None`` on timeout, when the pending entry is
    discarded so a reply that loses the race is dropped by
    :meth:`ReplyTable.dispatch`.  The wait is the one-event shape of
    :func:`reply_deadline`: the process yields the reply event alone.
    """
    arrival = node.env.event()

    def deliver(reply: Any) -> None:
        if not arrival.triggered:
            arrival.succeed(reply)

    request_id = table.allocate(deliver)
    node.send(dest, build_message(request_id))
    if on_sent is not None:
        on_sent()
    if (yield from wait_reply(node.env, arrival, timeout)):
        return arrival.value
    table.discard(request_id)
    return None


def reply_deadline(env, arrival, timeout: float):
    """Give the untriggered event ``arrival`` a deadline.

    The client-side shape of the timer rule: the requester yields
    ``arrival`` alone — one event per request instead of a reply event,
    a timer and a condition over both — and the returned timer fails it
    with :class:`ReplyTimeout` after ``timeout`` unless the reply
    triggered it first.  Hand the timer to :func:`reply_won` when it did.
    """
    timer = env.timeout(timeout, arrival)
    timer.add_callback(_expire)
    return timer


def reply_won(timer) -> None:
    """The reply beat ``timer``: detach it and leave it dead on the queue."""
    timer.remove_callback(_expire)
    timer.cancel()


def wait_reply(env, arrival, timeout: float):
    """Process generator: wait on the untriggered event ``arrival`` alone,
    for at most ``timeout``; returns True if it triggered first, False if
    the timer did (one :func:`reply_deadline`/:func:`reply_won` pair).

    A timed-out wait drops its :class:`ReplyTimeout`'s traceback: that
    holds this frame, which holds ``arrival``, which holds the exception,
    a cycle only the garbage collector would free.
    """
    timer = reply_deadline(env, arrival, timeout)
    try:
        yield arrival
    except ReplyTimeout as expired:
        expired.__traceback__ = None
        return False
    reply_won(timer)
    return True


def retry_until_acked(
    node,
    dest: str,
    message: Any,
    interval: float,
    acked,
    deadline: Optional[float] = None,
    on_sent: Optional[Callable[[], None]] = None,
):
    """Resend ``message`` every ``interval`` until ``acked`` triggers.

    Process generator.  Stops when the ``acked`` event fires or, when a
    ``deadline`` is given, once simulated time reaches it (Section 3.4:
    retry "until the access right would have expired based on the time
    mechanism").  A crashed node skips sends but keeps its pacing.
    """
    while (deadline is None or node.env.now < deadline) and not acked.triggered:
        if node.up:
            node.send(dest, message)
            if on_sent is not None:
                on_sent()
        yield node.env.any_of([acked, node.env.timeout(interval)])
