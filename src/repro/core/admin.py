"""Administration clients — manager-users exercising the *manage* right.

Section 2.1 defines ``Managers(A)`` as "the users that have the ability
to change the access rights associated with A"; the manager *hosts* are
where those changes are applied.  :class:`AdminClient` is such a user's
machine: it sends :class:`~repro.core.messages.AdminRequest` messages
(signed, when the deployment requires it) to a manager host, which
checks the issuer's ``Right.MANAGE`` before issuing the operation.

Delegation falls out naturally: an admin may grant ``Right.MANAGE`` to
another user, who can then administer the application; revoking the
manage right strips the capability with the protocol's usual quorum
semantics.
"""

from __future__ import annotations

from typing import Optional

from ..auth.identity import Principal
from ..sim.node import Address
from .client import RequestClient
from .messages import AdminRequest, AdminResponse
from .records import record
from .rights import Right

__all__ = ["AdminClient", "AdminResult"]


@record
class AdminResult:
    """Outcome of one administration operation, as the admin saw it."""

    accepted: bool
    reason: str
    update_id: str
    latency: float
    timed_out: bool = False


class AdminClient(RequestClient):
    """A manager-user's machine."""

    handlers = {AdminResponse: "_on_reply"}

    def __init__(
        self,
        address: Address,
        admin_id: str,
        principal: Optional[Principal] = None,
        request_timeout: float = 30.0,
    ):
        super().__init__(address, principal, request_timeout)
        self.admin_id = admin_id

    # -- the Section 2.3 operations, issued remotely ----------------------------
    def add(self, manager: Address, application: str, subject: str,
            right: Right = Right.USE):
        """Process generator: ``Add(A, U, R)`` via ``manager``."""
        return self._operate(manager, application, subject, right, grant=True)

    def revoke(self, manager: Address, application: str, subject: str,
               right: Right = Right.USE):
        """Process generator: ``Revoke(A, U, R)`` via ``manager``."""
        return self._operate(manager, application, subject, right, grant=False)

    def _operate(self, manager: Address, application: str, subject: str,
                 right: Right, grant: bool):
        start = self.env.now
        response = yield from self._exchange(
            manager,
            lambda request_id: AdminRequest(
                request_id=request_id,
                application=application,
                subject=subject,
                right=right,
                grant=grant,
                admin=self.admin_id,
            ),
        )
        latency = self.env.now - start
        if response is None:
            return AdminResult(
                accepted=False,
                reason="request timed out",
                update_id="",
                latency=latency,
                timed_out=True,
            )
        return AdminResult(
            accepted=response.accepted,
            reason=response.reason,
            update_id=response.update_id,
            latency=latency,
        )
