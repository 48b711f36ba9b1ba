"""Baseline 4: temporal authorizations (Bertino et al. [4]).

Section 4.2: "With this technique, a user is granted access to an
application ... for a known fixed period of time, typically on the
order of days, weeks, or months. ... It would be possible, however, to
provide a coarse-grained simulation of our approach and guarantees by
repeatedly providing short-lived temporal authorizations rather than
granting permanent access rights."

Semantics implemented here:

* An authority grants *leases*: authorizations valid for a fixed
  ``lease_duration`` on the host's local clock.
* Hosts cache a lease until it expires, then renew with any authority.
* Revocation is passive: the authority stops issuing leases; there is
  no revocation push and no cross-authority coordination (each
  authority maintains its own grant list; an Add/Revoke is applied to
  all authorities directly, as [4] is a single-database model).

The result is exactly the "coarse-grained simulation" the paper
describes: revocation latency is bounded by ``lease_duration`` (their
days-to-months vs the paper's seconds-to-minutes ``Te``), overhead is
``O(1/lease_duration)``, and there is no availability/security knob.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.acl import AccessControlList
from ..core.host import DecisionReason
from ..core.messages import QueryRequest, QueryResponse, Verdict
from ..core.rights import Right
from ..sim.clock import ClockFactory, LocalClock
from ..sim.node import Address
from .common import BaselineHost, BaselineManager, BaselineSystem

__all__ = ["TemporalAuthority", "TemporalHost", "TemporalAuthSystem"]


class TemporalAuthority(BaselineManager):
    """Issues fixed-duration leases from its authorization list."""

    def __init__(
        self,
        address: Address,
        applications: Sequence[str],
        lease_duration: float,
        shared_acls: Optional[Dict[str, AccessControlList]] = None,
    ):
        if lease_duration <= 0:
            raise ValueError("lease duration must be positive")
        # [4] is a single-database model: authorities may share one
        # authorization store (replicated only for read availability).
        super().__init__(address, applications, acls=shared_acls)
        self.lease_duration = lease_duration
        self.leases_issued = 0

    @property
    def te(self) -> float:
        return self.lease_duration

    def _granted(self, src: Address, query: QueryRequest) -> None:
        self.leases_issued += 1


class TemporalHost(BaselineHost):
    """Caches leases until their fixed term ends."""

    round_reason = "lease_renewal"

    def __init__(self, address: Address, authorities: Sequence[Address],
                 clock: Optional[LocalClock] = None):
        super().__init__(address, authorities)
        self.clock = clock
        # leases[app][(user, right)] = local-clock expiry
        self._leases: Dict[str, Dict[Tuple[str, Right], float]] = {}
        self.stats["lease_hits"] = 0

    def _local(self, application: str, user: str, right: Right):
        leases = self._leases.setdefault(application, {})
        expiry = leases.get((user, right))
        if expiry is not None and self.clock.now() < expiry:
            self.stats["lease_hits"] += 1
            return True, DecisionReason.CACHE, "lease"
        if expiry is not None:
            del leases[(user, right)]
        return None

    def _remember(self, application: str, user: str, right: Right,
                  reply: QueryResponse, sent_local: float) -> None:
        leases = self._leases.get(application)  # None once a crash wiped them
        if leases is not None and reply.verdict == Verdict.GRANT:
            leases[(user, right)] = sent_local + reply.te

    def on_crash(self) -> None:
        super().on_crash()
        self._leases.clear()


class TemporalAuthSystem(BaselineSystem):
    """A wired temporal-authorization deployment."""

    def __init__(self, *args, lease_duration: float = 3600.0, **kwargs):
        self.lease_duration = lease_duration
        super().__init__(*args, **kwargs)

    def _build(self, host_addrs):
        shared = {app: AccessControlList(app) for app in self.applications}
        managers = [
            TemporalAuthority(
                addr,
                self.applications,
                lease_duration=self.lease_duration,
                shared_acls=shared,
            )
            for addr in self.manager_addrs
        ]
        clocks = ClockFactory(self.env, rng=self.streams.stream("clocks"))
        hosts = [
            TemporalHost(addr, self.manager_addrs, clock=clocks.make())
            for addr in host_addrs
        ]
        return managers, hosts
