"""Comparison baselines.

The paper positions its cached-quorum protocol against three design
points (Section 3) and two related systems (Section 4.2); this package
implements the four that are distinct systems:

* :mod:`~repro.baselines.full_replication` — push the ACL to every
  host; local checks, unbounded revocation staleness under partitions.
* :mod:`~repro.baselines.local_only` — updates stay at the issuing
  manager; every check must reach *all* managers.
* :mod:`~repro.baselines.eventual` — gossip-replicated managers with
  eventual consistency and no time bounds ([23]-style).
* :mod:`~repro.baselines.temporal_auth` — fixed-term leases
  ([4]-style): revocation bounded only by the (long) lease term.

All four sit on one substrate, :mod:`~repro.baselines.common`: one
issue path (``add``/``revoke``), one answer to a ``QueryRequest``, one
host check loop (query round, attempt/backoff, decision record) and
one seeding path.  Each module keeps only what makes its system
distinct — a follow-up to an issued update, the answer's ``te``, and
the host's own state (replica, forever-cache or leases) — so every
system answers, decides and is measured through the same code.

(The paper's *second* option — "disseminate the access control
information just among the managers" with per-access manager checks —
is the paper's own protocol with caching disabled; the benches get it
by setting ``Te`` so small that the cache never hits.)
"""

from .common import BaselineSystem
from .eventual import EventualHost, EventualManager, EventualSystem
from .full_replication import (
    FullReplicationHost,
    FullReplicationManager,
    FullReplicationSystem,
)
from .local_only import LocalOnlyHost, LocalOnlyManager, LocalOnlySystem
from .temporal_auth import TemporalAuthSystem, TemporalAuthority, TemporalHost

__all__ = [
    "BaselineSystem",
    "EventualHost",
    "EventualManager",
    "EventualSystem",
    "FullReplicationHost",
    "FullReplicationManager",
    "FullReplicationSystem",
    "LocalOnlyHost",
    "LocalOnlyManager",
    "LocalOnlySystem",
    "TemporalAuthSystem",
    "TemporalAuthority",
    "TemporalHost",
]
