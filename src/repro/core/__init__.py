"""The paper's access-control protocol (the primary contribution).

Public surface:

* Data model — :class:`Right`, :class:`Version`, :class:`AclEntry`,
  :class:`AccessControlList`, :class:`ACLCache`.
* Policy — :class:`AccessPolicy` with the paper's knobs
  (``M``/``C``/``Te``/``R``/``Ti``/``b``) and presets.
* Nodes — :class:`AccessControlHost` (Figures 2–4),
  :class:`AccessControlManager` (Section 3.3/3.4),
  :class:`ApplicationHost` +
  :class:`Application` (the Figure 1 wrapper), :class:`UserClient`.
* Wiring — :class:`AccessControlSystem`.
"""

from .acl import AccessControlList
from .admin import AdminClient, AdminResult
from .byzantine import DENY_ALL, FLIP, GRANT_ALL, LyingManager, required_quorum
from .cache import ACLCache, CacheEntry, CacheLookup
from .client import InvokeResult, UserClient
from .host import AccessControlHost, AccessDecision, DecisionReason
from .manager import AccessControlManager, UpdateHandle
from .messages import (
    AclUpdate,
    AdminRequest,
    AdminResponse,
    AppRequest,
    AppResponse,
    Ping,
    Pong,
    QueryRequest,
    QueryResponse,
    RevokeNotify,
    RevokeNotifyAck,
    SyncRequest,
    SyncResponse,
    UpdateAck,
    UpdateMsg,
    Verdict,
)
from .policy import (
    UNBOUNDED_ATTEMPTS,
    AccessPolicy,
    DeltaMode,
    ExhaustedAction,
    QueryStrategy,
)
from .rights import AclEntry, Right, Version, ZERO_VERSION
from .system import AccessControlSystem
from .wrapper import Application, ApplicationHost

__all__ = [
    "ACLCache",
    "AdminClient",
    "AdminRequest",
    "AdminResponse",
    "AdminResult",
    "DENY_ALL",
    "FLIP",
    "GRANT_ALL",
    "LyingManager",
    "required_quorum",
    "AccessControlHost",
    "AccessControlList",
    "AccessControlManager",
    "AccessControlSystem",
    "AccessDecision",
    "AccessPolicy",
    "AclEntry",
    "AclUpdate",
    "AppRequest",
    "AppResponse",
    "Application",
    "ApplicationHost",
    "CacheEntry",
    "CacheLookup",
    "DecisionReason",
    "DeltaMode",
    "ExhaustedAction",
    "InvokeResult",
    "Ping",
    "Pong",
    "QueryRequest",
    "QueryResponse",
    "QueryStrategy",
    "RevokeNotify",
    "RevokeNotifyAck",
    "Right",
    "SyncRequest",
    "SyncResponse",
    "UNBOUNDED_ATTEMPTS",
    "UpdateAck",
    "UpdateHandle",
    "UpdateMsg",
    "UserClient",
    "Verdict",
    "Version",
    "ZERO_VERSION",
]
