"""The wire protocol.

Every message exchanged between hosts, managers, clients, and the name
service.  Messages are frozen dataclasses; the network layer treats
them as opaque payloads.  Where the paper names a message we keep its
name: a manager's positive answer to an access query is ``Add(A, U,
te)`` (Figure 3) and the revocation notification is ``Revoke(A, U)``
(Figure 2).

Authentication: any message can be wrapped in
:class:`repro.auth.SignedMessage`; components that require
authentication unwrap and verify before dispatching (see
``repro.core.wrapper``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from .rights import AclEntry, Right, Version

__all__ = [
    "Verdict",
    "AdminRequest",
    "AdminResponse",
    "QueryRequest",
    "QueryResponse",
    "AclUpdate",
    "UpdateMsg",
    "UpdateAck",
    "RevokeNotify",
    "RevokeNotifyAck",
    "SyncRequest",
    "SyncResponse",
    "Ping",
    "Pong",
    "NameLookup",
    "NameResult",
    "AppRequest",
    "AppResponse",
]


class Verdict:
    """Manager answers to an access query."""

    GRANT = "grant"
    DENY = "deny"


@dataclass(frozen=True)
class QueryRequest:
    """Host -> manager: does ``user`` hold ``right`` on ``application``?

    ``key_id`` names the pairwise key the host would like the answer
    tagged under (0: sign it); ``wrapped_key``, when not 0, carries that
    key wrapped under the manager's public key.
    """

    query_id: int
    application: str
    user: str
    right: Right
    key_id: int = 0
    wrapped_key: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Manager -> host: the paper's ``Add(A, U, te)`` or a denial.

    ``te`` is the cache lifetime in local-clock units (only meaningful
    for grants).  ``version`` lets the host pick the freshest answer
    out of its check quorum.
    """

    query_id: int
    application: str
    user: str
    right: Right
    verdict: str  # Verdict.GRANT or Verdict.DENY
    te: float
    version: Version
    manager: str


@dataclass(frozen=True)
class AclUpdate:
    """One Add/Revoke operation as disseminated between managers.

    ``grant=True`` is ``Add(A, U, R)``; ``grant=False`` is
    ``Revoke(A, U, R)`` (Section 2.3).
    """

    update_id: str
    application: str
    user: str
    right: Right
    grant: bool
    version: Version
    origin: str

    def entry(self) -> AclEntry:
        """The ACL entry this update writes."""
        return AclEntry(
            user=self.user, right=self.right, granted=self.grant, version=self.version
        )


@dataclass(frozen=True)
class UpdateMsg:
    """Manager -> manager: persistent dissemination of an update."""

    update: AclUpdate


@dataclass(frozen=True)
class UpdateAck:
    """Manager -> manager: update received and applied."""

    update_id: str
    acker: str


@dataclass(frozen=True)
class RevokeNotify:
    """Manager -> host: the paper's ``Revoke(A, U)`` cache flush."""

    application: str
    user: str
    right: Right
    version: Version
    notify_id: int


@dataclass(frozen=True)
class RevokeNotifyAck:
    """Host -> manager: flush done, stop resending."""

    notify_id: int
    host: str


@dataclass(frozen=True)
class SyncRequest:
    """Recovering manager -> peer: send me your ACL state for these apps."""

    requester: str
    applications: Tuple[str, ...]


@dataclass(frozen=True)
class SyncResponse:
    """Peer -> recovering manager: full ACL snapshots."""

    responder: str
    snapshots: Tuple[Tuple[str, Tuple[AclEntry, ...]], ...]


@dataclass(frozen=True)
class Ping:
    """Manager peer-liveness probe (freeze strategy)."""

    nonce: int
    sender: str


@dataclass(frozen=True)
class Pong:
    """Reply to :class:`Ping`."""

    nonce: int
    sender: str


@dataclass(frozen=True)
class NameLookup:
    """Host -> name service: who manages ``application``?"""

    lookup_id: int
    application: str


@dataclass(frozen=True)
class NameResult:
    """Name service -> host: the manager set (empty = unknown app)."""

    lookup_id: int
    application: str
    managers: Tuple[str, ...]


@dataclass(frozen=True)
class AdminRequest:
    """Manager-user -> manager host: issue an access-rights change.

    The paper's Managers(A) are *users* holding the manage right
    (Section 2.1); this message is how such a user exercises it from
    their own machine.  Sign it (wrap in
    :class:`~repro.auth.SignedMessage`) when the manager requires
    authentication.
    """

    request_id: int
    application: str
    subject: str  # the user whose rights change
    right: Right
    grant: bool
    admin: str  # the issuing manager-user


@dataclass(frozen=True)
class AdminResponse:
    """Manager host -> manager-user: operation outcome.

    ``accepted=True`` is sent once the update quorum is reached — the
    paper's blocking-return point ("an operation is guaranteed to have
    taken effect throughout the system when the call returns").
    """

    request_id: int
    accepted: bool
    reason: str = ""
    update_id: str = ""


@dataclass(frozen=True)
class AppRequest:
    """Client -> application host: an ``Invoke(A)`` carrying a payload.

    The access-control wrapper intercepts this, checks the sender's
    *use* right, and only then hands ``payload`` to the application.
    """

    request_id: int
    application: str
    user: str
    payload: Any = None


@dataclass(frozen=True)
class AppResponse:
    """Application host -> client: result or rejection."""

    request_id: int
    application: str
    allowed: bool
    result: Any = None
    reason: str = ""
