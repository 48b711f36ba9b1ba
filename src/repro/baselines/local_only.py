"""Baseline 2: updates stay local to the issuing manager.

Section 3's third design option: "only change the information locally
at the manager issuing the update operation, in which case checking
access would in general involve communicating with all managers to
locate the information."

Semantics implemented here:

* A manager applies Add/Revoke to its own ACL only — zero update
  traffic, updates are "effective" instantly at the origin.
* An application host must hear from **all M managers** to decide: any
  one of them may hold the latest (possibly revoking) operation, and
  version comparison picks the winner.  No caching (the paper's option
  lists none; caching is the paper's own contribution).
* Consequence measured by the ``baselines`` experiment: every access costs
  ``2M`` messages, and a single unreachable manager blocks *all*
  decisions (terrible availability under partitions).
"""

from __future__ import annotations

from typing import Sequence

from ..sim.node import Address
from .common import BaselineHost, BaselineManager, BaselineSystem

__all__ = ["LocalOnlyManager", "LocalOnlyHost", "LocalOnlySystem"]


class LocalOnlyManager(BaselineManager):
    """Keeps its own updates; answers queries from local state only."""

    te = 0.0


class LocalOnlyHost(BaselineHost):
    """Must gather responses from every manager for each access."""

    round_reason = "all_managers"

    def _targets(self, attempt: int) -> Sequence[Address]:
        return self.managers


class LocalOnlySystem(BaselineSystem):
    """A wired local-only deployment."""

    def _build(self, host_addrs):
        managers = [
            LocalOnlyManager(addr, self.applications) for addr in self.manager_addrs
        ]
        hosts = [LocalOnlyHost(addr, self.manager_addrs) for addr in host_addrs]
        return managers, hosts
