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

from typing import Any, Callable, Optional

from ..auth.identity import Principal
from ..protocols.messaging import ReplyTable, request
from ..sim.node import Address, Node
from .messages import AppRequest, AppResponse
from .records import record

__all__ = ["RequestClient", "UserClient", "InvokeResult"]


@record
class InvokeResult:
    """Outcome of one application invocation from the client's view."""

    allowed: bool
    result: Any
    reason: str
    latency: float
    timed_out: bool = False


class RequestClient(Node):
    """The one request path of the user and admin clients: each request
    is signed when the client holds a :class:`~repro.auth.Principal` and
    awaited under ``request_timeout`` by
    :func:`~repro.protocols.messaging.request`."""

    def __init__(
        self,
        address: Address,
        principal: Optional[Principal] = None,
        request_timeout: float = 30.0,
    ):
        super().__init__(address)
        self.principal = principal
        self.request_timeout = request_timeout
        self._pending = ReplyTable()

    def _exchange(self, dest: Address, build_request: Callable[[int], Any]):
        """Process generator: the reply, or None on timeout."""

        def build(request_id: int) -> Any:
            message = build_request(request_id)
            return message if self.principal is None else self.principal.sign(message)

        return request(self, self._pending, dest, build, self.request_timeout)

    def _on_reply(self, src: Address, reply: Any) -> None:
        self._pending.dispatch(reply.request_id, reply)

    def on_crash(self) -> None:
        self._pending.clear()


class UserClient(RequestClient):
    """A user's machine issuing application requests."""

    handlers = {AppResponse: "_on_reply"}

    def __init__(
        self,
        address: Address,
        user_id: str,
        principal: Optional[Principal] = None,
        request_timeout: float = 30.0,
    ):
        super().__init__(address, principal, request_timeout)
        self.user_id = user_id

    def invoke(self, host: Address, application: str, payload: Any = None):
        """Process generator: invoke ``application`` on ``host``.

        The driving process's value is an :class:`InvokeResult`.  A lost
        request or response surfaces as ``timed_out=True`` — the user
        "simply has to locate a new host" (Section 3.4).
        """
        start = self.env.now
        response = yield from self._exchange(
            host,
            lambda request_id: AppRequest(
                request_id=request_id,
                application=application,
                user=self.user_id,
                payload=payload,
            ),
        )
        latency = self.env.now - start
        if response is None:
            return InvokeResult(
                allowed=False,
                result=None,
                reason="request timed out",
                latency=latency,
                timed_out=True,
            )
        return InvokeResult(
            allowed=response.allowed,
            result=response.result,
            reason=response.reason,
            latency=latency,
        )

    def request(self, host: Address, application: str, payload: Any = None):
        """Convenience: run :meth:`invoke` as a process."""
        return self.env.process(
            self.invoke(host, application, payload),
            name=f"{self.address}/invoke:{application}",
        )
