"""User clients.

A :class:`UserClient` models a user's machine: it issues
``Invoke(A)``-style :class:`~repro.core.messages.AppRequest` messages
to an application host and awaits the wrapper's
:class:`~repro.core.messages.AppResponse`.  Requests are signed with
the user's key when the client holds a
:class:`~repro.auth.Principal`, exercising the paper's authentication
assumption end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..auth.identity import Principal
from ..protocols.messaging import ReplyTimeout, reply_deadline, reply_won
from ..sim.node import Address, Node
from .messages import AppRequest, AppResponse

__all__ = ["UserClient", "InvokeResult"]


@dataclass(frozen=True)
class InvokeResult:
    """Outcome of one application invocation from the client's view."""

    allowed: bool
    result: Any
    reason: str
    latency: float
    timed_out: bool = False

    def __bool__(self) -> bool:
        return self.allowed and not self.timed_out


class UserClient(Node):
    """A user's machine issuing application requests."""

    def __init__(
        self,
        address: Address,
        user_id: str,
        principal: Optional[Principal] = None,
        request_timeout: float = 30.0,
    ):
        super().__init__(address)
        self.user_id = user_id
        self.principal = principal
        self.request_timeout = request_timeout
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, Any] = {}

    def invoke(self, host: Address, application: str, payload: Any = None):
        """Process generator: invoke ``application`` on ``host``.

        The driving process's value is an :class:`InvokeResult`.  A lost
        request or response surfaces as ``timed_out=True`` — the user
        "simply has to locate a new host" (Section 3.4).
        """
        request_id = next(self._request_ids)
        request = AppRequest(
            request_id=request_id,
            application=application,
            user=self.user_id,
            payload=payload,
        )
        message: Any = request
        if self.principal is not None:
            message = self.principal.sign(request)
        arrival = self.env.event()
        self._pending[request_id] = arrival
        start = self.env.now
        self.send(host, message)
        timer = reply_deadline(self.env, arrival, self.request_timeout)
        try:
            response: AppResponse = yield arrival
        except ReplyTimeout:
            self._pending.pop(request_id, None)
            return InvokeResult(
                allowed=False,
                result=None,
                reason="request timed out",
                latency=self.env.now - start,
                timed_out=True,
            )
        reply_won(timer)
        return InvokeResult(
            allowed=response.allowed,
            result=response.result,
            reason=response.reason,
            latency=self.env.now - start,
        )

    def request(self, host: Address, application: str, payload: Any = None):
        """Convenience: run :meth:`invoke` as a process."""
        return self.env.process(
            self.invoke(host, application, payload),
            name=f"{self.address}/invoke:{application}",
        )

    def handle_message(self, src: Address, message: Any) -> None:
        if isinstance(message, AppResponse):
            event = self._pending.pop(message.request_id, None)
            if event is not None and not event.triggered:
                event.succeed(message)

    def on_crash(self) -> None:
        self._pending.clear()
