"""The access-control wrapper around applications.

Figure 1's design note: "the access control mechanisms encapsulate the
application, essentially creating a wrapper that enables the
application to be written without needing to address access control ...
this allows access control mechanisms to be added transparently to
existing applications."

:class:`Application` is the interface an unmodified service implements;
:class:`ApplicationHost` is an :class:`~repro.core.host.AccessControlHost`
that additionally hosts applications: it intercepts
:class:`~repro.core.messages.AppRequest` messages, authenticates the
sender (when an :class:`~repro.auth.Authenticator` is configured),
checks the *use* right via the paper's protocol, and only then forwards
the payload to the application.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..auth.identity import Authenticator, SignedMessage
from ..sim.node import Address
from .host import AccessControlHost, AccessDecision
from .messages import AppRequest, AppResponse
from .policy import AccessPolicy
from .rights import Right

__all__ = ["Application", "ApplicationHost"]


class Application:
    """Interface for a wrapped application.

    Subclasses implement :meth:`handle_request`; they never see
    unauthorized traffic and contain no access-control logic — that is
    the wrapper's transparency property.
    """

    #: The application name (the paper's ``A``).
    name: str = "application"

    def handle_request(self, user: str, payload: Any) -> Any:
        """Serve one authorized request and return its result."""
        raise NotImplementedError

    def on_deploy(self, host: "ApplicationHost") -> None:
        """Hook called when the application is installed on a host."""


class ApplicationHost(AccessControlHost):
    """An application host: access-control wrapper + applications.

    Takes :class:`AccessControlHost`'s parameters (by keyword after
    ``policy``) and an optional ``authenticator``.  When one is present,
    app requests must arrive as :class:`~repro.auth.SignedMessage` and
    the signature must verify for the claimed user; unauthenticated or
    forged requests are rejected before any access check.
    """

    def __init__(
        self,
        address: Address,
        policy: AccessPolicy,
        *,
        authenticator: Optional[Authenticator] = None,
        **host_options: Any,
    ):
        super().__init__(address, policy, **host_options)
        self.authenticator = authenticator
        self.applications: Dict[str, Application] = {}
        self.rejected_signatures = 0
        self.application_errors = 0

    def deploy(self, application: Application) -> Application:
        """Install an application behind the wrapper."""
        if application.name in self.applications:
            raise ValueError(f"{application.name!r} already deployed on {self.address}")
        self.applications[application.name] = application
        application.on_deploy(self)
        return application

    # -- request interception -----------------------------------------------------
    handlers = {
        **AccessControlHost.handlers,
        (SignedMessage, AppRequest): "_on_signed_request",
        AppRequest: "_on_request",
    }

    def _on_signed_request(self, src: Address, message: SignedMessage) -> None:
        request = message.payload
        if self.authenticator is None or not self.authenticator.authenticate(message):
            self.rejected_signatures += 1
            self._reject(src, request, "authentication failed")
        elif request.user != message.signature.signer:
            # Signed by someone other than the claimed user.
            self.rejected_signatures += 1
            self._reject(src, request, "signer mismatch")
        else:
            self._admit(src, request)

    def _on_request(self, src: Address, request: AppRequest) -> None:
        if self.authenticator is not None:
            # Policy: when authentication is configured, unsigned
            # requests are rejected outright.
            self._reject(src, request, "unsigned request")
        else:
            self._admit(src, request)

    def _admit(self, src: Address, request: AppRequest) -> None:
        """Serve an authenticated request if its sender holds the use right."""
        application = self.applications.get(request.application)
        if application is None:
            self._reject(src, request, "no such application")
            return
        # Figure 3's steady state: a cached grant is decided, served and
        # answered inside this delivery — no process, no engine event.
        decision = self.pipeline.probe(request.application, request.user, Right.USE)
        if decision is None:
            self.spawn(
                self._serve(src, request, application),
                name=f"{self.address}/serve:{request.request_id}",
            )
        else:
            self._respond(src, request, application, decision)

    def _serve(self, src: Address, request: AppRequest, application: Application):
        """The miss path: verify the use right with the managers (the
        probe already counted and traced the request), then respond."""
        decision = yield from self.pipeline.check(
            request.application, request.user, Right.USE, missed=True
        )
        self._respond(src, request, application, decision)

    def _respond(
        self,
        src: Address,
        request: AppRequest,
        application: Application,
        decision: AccessDecision,
    ) -> None:
        """Invoke the application if ``decision`` allows, and reply."""
        if not decision.allowed:
            self._reject(src, request, f"access denied ({decision.reason})")
            return
        try:
            result = application.handle_request(request.user, request.payload)
        except Exception as exc:
            # An application bug must not kill the host's serving loop;
            # surface it to the client as an error response instead.
            self.application_errors += 1
            self._reject(
                src, request, f"application error: {type(exc).__name__}: {exc}"
            )
            return
        self.send(
            src,
            AppResponse(
                request_id=request.request_id,
                application=request.application,
                allowed=True,
                result=result,
                reason=decision.reason,
            ),
        )

    def _reject(self, src: Address, request: AppRequest, reason: str) -> None:
        self.send(
            src,
            AppResponse(
                request_id=request.request_id,
                application=request.application,
                allowed=False,
                result=None,
                reason=reason,
            ),
        )
