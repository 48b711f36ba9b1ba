"""One description of a cell, and the one place its nodes are built.

The paper deploys one shape (Figure 1, Section 3.3): managers hold each
application's ACL; hosts cache entries fetched from its manager set.
:class:`CellSpec` is that shape as frozen data, and its :meth:`manager`
and :meth:`host` build the nodes of every backend: the simulated
:class:`~repro.core.system.AccessControlSystem`, and through
:mod:`repro.net.cell`'s live recipe, :class:`~repro.net.cell.LiveCell`
and ``repro serve``'s node roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple, Type

from ..protocols.sharding import ShardRouter
from ..sim.node import Address
from .manager import AccessControlManager
from .policy import AccessPolicy
from .wrapper import ApplicationHost

__all__ = ["CellSpec"]


@dataclass(frozen=True)
class CellSpec:
    """Applications, manager groups, hosts and default policy of a cell.

    Each group is an independent ``Managers(A)`` running its own
    dissemination; with several, :attr:`shard_router` consistent-hashes
    applications onto groups.  Each group must fit the policy's quorum.
    """

    applications: Tuple[str, ...]
    groups: Tuple[Tuple[Address, ...], ...]
    hosts: Tuple[Address, ...]
    policy: AccessPolicy
    #: Derived from ``groups`` (None for one group); ``dataclasses.replace``
    #: carries it over, so hosts built earlier keep the same router.
    shard_router: Optional[ShardRouter] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.applications:
            raise ValueError("need at least one application")
        if not self.groups:
            raise ValueError("need at least one manager")
        for group in self.groups:
            self.policy.validate_for(len(group))
        nodes = [*self.manager_addrs, *self.hosts]
        if len(set(nodes)) != len(nodes):
            raise ValueError("node names must be unique across groups and hosts")
        if self.shard_router is None and len(self.groups) > 1:
            object.__setattr__(self, "shard_router", ShardRouter(self.groups))

    @staticmethod
    def names(n_managers: int, n_hosts: int = 0, shards: int = 1
              ) -> Tuple[Tuple[Tuple[Address, ...], ...], Tuple[Address, ...]]:
        """The one naming rule, as ``(groups, hosts)``: a single group is
        ``m0..m{M-1}``, group ``g`` of several is ``s{g}m0..s{g}m{M-1}``
        (so membership shows in every trace line), and hosts are
        ``h0..h{N-1}``.  Policy-free, so analyses that only need the
        names of a cell's nodes share it without building one."""
        prefixes = [""] if shards == 1 else [f"s{g}" for g in range(shards)]
        return (tuple(tuple(f"{p}m{i}" for i in range(n_managers)) for p in prefixes),
                tuple(f"h{i}" for i in range(n_hosts)))

    @classmethod
    def sized(cls, n_managers: int, n_hosts: int, applications: Sequence[str] = ("app",),
              policy: Optional[AccessPolicy] = None, shards: int = 1) -> "CellSpec":
        """``shards`` groups of ``n_managers`` managers and ``n_hosts``
        hosts, named by :meth:`names`."""
        if n_managers < 1:
            raise ValueError("need at least one manager")
        if n_hosts < 0:
            raise ValueError("host count cannot be negative")
        if shards < 1:
            raise ValueError("need at least one shard")
        groups, hosts = cls.names(n_managers, n_hosts, shards)
        return cls(tuple(applications), groups, hosts, policy or AccessPolicy())

    @property
    def manager_addrs(self) -> Tuple[Address, ...]:
        """Every manager, group by group."""
        return tuple(address for group in self.groups for address in group)

    def group_index_for(self, application: str) -> int:
        """Index of the group owning ``application`` (0 with one group)."""
        if self.shard_router is None:
            return 0
        return self.shard_router.shard_of(application)

    def manager_addrs_for(self, application: str) -> Tuple[Address, ...]:
        """``Managers(application)``: the owning group's addresses."""
        return self.groups[self.group_index_for(application)]

    def manager(self, address: Address, cls: Type[AccessControlManager] = AccessControlManager,
                **options: Any) -> AccessControlManager:
        """Manager ``address``, managing every application its group owns.

        ``cls`` may be a subclass (the experiments' lying managers);
        ``options`` go to its constructor.
        """
        group = next((g for g in self.groups if address in g), None)
        if group is None:
            raise ValueError(f"{address!r} is not a manager of this cell")
        manager = cls(address, self.policy, **options)
        for application in self.applications:
            if self.manager_addrs_for(application) == group:
                manager.manage(application, group)
        return manager

    def host(self, address: Address, **options: Any) -> ApplicationHost:
        """Host ``address``: static ``Managers(A)`` maps with one group,
        the ring with several.  ``options`` go to its constructor."""
        if self.shard_router is not None:
            options["shard_router"] = self.shard_router
        else:
            options["managers"] = {app: self.manager_addrs for app in self.applications}
        return ApplicationHost(address, self.policy, **options)
