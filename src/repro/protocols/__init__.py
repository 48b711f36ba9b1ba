"""Pluggable protocol strategies — the paper's *family* of protocols.

The paper's contribution is not one algorithm but a family: the basic
cached check (Figure 2), time-bounded revocation (Figure 3), the
high-availability default-allow rule (Figure 4), and the freeze vs.
quorum manager-coordination strategies (Section 3.3).  This package
decomposes the protocol into strategy objects over a common substrate
so each member of the family — and new members, such as weighted
voting — is a *composition* rather than a branch inside a god-class:

* :mod:`~repro.protocols.messaging` — the shared request/reply and
  retry-until-acked substrate both sides are built on.
* :mod:`~repro.protocols.planner` — how a host gathers a round of
  manager responses: one walk over manager batches, cut per strategy
  (``C`` first, Figure 2's one-by-one, or one fan-out).
* :mod:`~repro.protocols.combiner` — how a round's responses are
  combined into a verdict (highest version, Byzantine ``f + 1``
  vouching, weighted voting).
* :mod:`~repro.protocols.decision` — terminal decision policy
  (verified / denied / Figure 4 default-allow / exhausted) and the
  Figure 3 expiry stamp.
* :mod:`~repro.protocols.resolver` — ``Managers(A)`` resolution
  (static config, TTL cache, trusted name service).
* :mod:`~repro.protocols.pipeline` — the host-side verification
  pipeline wiring cache, planner, combiner, and decision together.
* :mod:`~repro.protocols.maintenance` — background cache upkeep
  (expiry sweep, refresh-ahead).
* :mod:`~repro.protocols.query` — answering ``Query(A, U, R)`` at a
  manager, including grant-table bookkeeping and freeze/recovery
  silence.
* :mod:`~repro.protocols.dissemination` — the ``Add``/``Revoke``
  operations and manager-side update dissemination: the quorum
  strategy vs Section 3.3's freeze strategy.
* :mod:`~repro.protocols.revocation` — grant-table bookkeeping and
  revocation forwarding to caching hosts.
* :mod:`~repro.protocols.recovery` — Section 3.4 crash recovery
  (stable-store reload + peer resync).
* :mod:`~repro.protocols.admin` — delegated administration (the
  *manage* right exercised remotely).

Strategies are stateless policy-parameterized objects; per-node state
(caches, pending tables, grant tables) stays on the owning
:class:`~repro.sim.node.Node`, which keeps crash semantics in one
place.  Every strategy boundary publishes through the node's tracer,
so :mod:`repro.verify` oracles and :mod:`repro.metrics` collectors
observe any composition uniformly.
"""

from .admin import AdminService
from .combiner import (
    ByzantineVouchCombiner,
    HighestVersionCombiner,
    ResponseCombiner,
    WeightedVoteCombiner,
    combiner_for,
)
from .decision import DecisionPolicy, ExpiryStamper
from .dissemination import (
    DisseminationStrategy,
    FreezeStrategy,
    PendingUpdate,
    QuorumStrategy,
    dissemination_strategy_for,
)
from .maintenance import CacheMaintenance
from .messaging import ReplyTable, request, retry_until_acked
from .pipeline import VerificationPipeline
from .query import QueryAnswerer
from .planner import QueryPlanner, planner_for
from .recovery import RecoverySync
from .resolver import ManagerResolver
from .revocation import RevocationForwarder

__all__ = [
    "AdminService",
    "ByzantineVouchCombiner",
    "CacheMaintenance",
    "DecisionPolicy",
    "DisseminationStrategy",
    "ExpiryStamper",
    "FreezeStrategy",
    "HighestVersionCombiner",
    "ManagerResolver",
    "PendingUpdate",
    "QueryAnswerer",
    "QueryPlanner",
    "QuorumStrategy",
    "ReplyTable",
    "RecoverySync",
    "ResponseCombiner",
    "RevocationForwarder",
    "VerificationPipeline",
    "WeightedVoteCombiner",
    "combiner_for",
    "dissemination_strategy_for",
    "planner_for",
    "request",
    "retry_until_acked",
]
