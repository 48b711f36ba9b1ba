"""Canned simulation scenarios.

Each scenario bundles a system, a population, an oracle, and workloads
into a ready-to-run study.  Experiments and examples build on these so
that "the newspaper workload" or "the revocation-storm workload" means
the same thing everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.policy import AccessPolicy
from ..core.rights import Right
from ..core.system import AccessControlSystem
from ..sim.network import LatencyModel
from ..sim.partitions import ConnectivityModel
from .generators import AccessWorkload, AuthorizationOracle, UpdateWorkload
from .population import UserPopulation

__all__ = ["Scenario", "steady_state_scenario"]


@dataclass
class Scenario:
    """A runnable bundle: system + ground truth + traffic."""

    system: AccessControlSystem
    application: str
    population: UserPopulation
    oracle: AuthorizationOracle
    access: AccessWorkload
    updates: Optional[UpdateWorkload]

    def run(self, until: float) -> None:
        self.system.run(until=until)

    @property
    def env(self):
        return self.system.env

    @property
    def tracer(self):
        return self.system.tracer


def steady_state_scenario(
    policy: AccessPolicy,
    n_managers: int = 5,
    n_hosts: int = 10,
    n_users: int = 100,
    authorized_fraction: float = 0.8,
    access_rate: float = 5.0,
    update_rate: Optional[float] = 0.02,
    application: str = "service",
    connectivity: Optional[ConnectivityModel] = None,
    latency: Optional[LatencyModel] = None,
    host_failures: Optional[Tuple[float, float]] = None,
    manager_failures: Optional[Tuple[float, float]] = None,
    seed: int = 0,
    zipf_s: float = 1.0,
    keep_trace_log: bool = False,
) -> Scenario:
    """The default study: a service under continuous access traffic and
    occasional management operations.

    ``authorized_fraction`` of the user population starts with the
    *use* right fully propagated (as if granted long ago).
    """
    system = AccessControlSystem(
        n_managers=n_managers,
        n_hosts=n_hosts,
        applications=(application,),
        policy=policy,
        connectivity=connectivity,
        latency=latency,
        host_failures=host_failures,
        manager_failures=manager_failures,
        seed=seed,
        keep_trace_log=keep_trace_log,
    )
    population = UserPopulation(n_users, zipf_s=zipf_s)
    oracle = AuthorizationOracle(expiry_bound=policy.expiry_bound)
    n_authorized = int(round(authorized_fraction * n_users))
    authorized = population.head(n_authorized)
    system.seed_grants(application, authorized, Right.USE)
    for user in authorized:
        oracle.grant(application, user)
    access = AccessWorkload(
        system,
        application,
        population,
        oracle,
        rate=access_rate,
        rng=system.streams.stream("access-workload"),
    )
    updates = None
    if update_rate is not None and update_rate > 0:
        updates = UpdateWorkload(
            system,
            application,
            population,
            oracle,
            rate=update_rate,
            rng=system.streams.stream("update-workload"),
            target_fraction=authorized_fraction,
        )
    return Scenario(
        system=system,
        application=application,
        population=population,
        oracle=oracle,
        access=access,
        updates=updates,
    )
