"""Workload generators that drive simulated systems.

The workloads mirror the paper's traffic assumptions (Section 2.1):

* :class:`AccessWorkload` — users invoke applications at hosts, at a
  Poisson rate, with users drawn from a skewed popularity distribution.
  Because the workload knows the authorisation ground truth, it reports
  every decision together with whether the user *should* have been
  allowed — that pairing is what the availability and security metrics
  consume.

* :class:`PeriodicWorkload` — closed-loop users, each asking one host
  again a fixed pause after every decision: the steady access pattern
  of the simulated experiments, and :class:`FlashCrowdWorkload`'s
  launch-day burst.

* :class:`UpdateWorkload` — managers issue Add/Revoke operations at a
  much lower Poisson rate ("the number of managers ... is relatively
  small and ... the frequency at which an application is used is much
  higher than the frequency at which a manager adds or revokes access
  rights").
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, Optional, Sequence, Set, Tuple, Union

from ..core.host import AccessControlHost, AccessDecision
from ..core.manager import AccessControlManager
from ..core.records import record
from ..core.rights import Right
from ..core.system import AccessControlSystem
from .population import DiurnalRate, UserPopulation

__all__ = [
    "ObservedDecision",
    "AccessWorkload",
    "FlashCrowdWorkload",
    "PeriodicWorkload",
    "UpdateWorkload",
    "AuthorizationOracle",
]


@record
class ObservedDecision:
    """One access decision paired with ground truth at request time."""

    time: float
    host: str
    user: str
    application: str
    decision: AccessDecision
    authorized: Optional[bool]  # ground truth when the attempt began


class AuthorizationOracle:
    """Ground truth of who is *really* authorized right now.

    Updated by :class:`UpdateWorkload` (and by tests) as operations are
    issued; ``authorized_at_bound`` additionally answers the security
    question "was this user authorized, or within the Te grace window
    of a revocation?" used by the security metric.
    """

    def __init__(self, expiry_bound: float):
        self.expiry_bound = expiry_bound
        self._granted: Set[Tuple[str, str]] = set()
        self._revoked_at: Dict[Tuple[str, str], float] = {}
        self._counts: Dict[str, int] = {}

    def grant(self, application: str, user: str) -> None:
        key = (application, user)
        if key not in self._granted:
            self._granted.add(key)
            self._counts[application] = self._counts.get(application, 0) + 1
        self._revoked_at.pop(key, None)

    def revoke(self, application: str, user: str, time: float) -> None:
        key = (application, user)
        if key in self._granted:
            self._granted.discard(key)
            self._counts[application] -= 1
        self._revoked_at[key] = time

    def is_authorized(self, application: str, user: str) -> bool:
        return (application, user) in self._granted

    def authorized_count(self, application: str) -> int:
        """How many users are currently authorized — O(1), so update
        workloads never scan the population."""
        return self._counts.get(application, 0)

    def in_grace(self, application: str, user: str, time: float) -> bool:
        """True while a revocation is inside its allowed Te window."""
        revoked_at = self._revoked_at.get((application, user))
        return revoked_at is not None and time <= revoked_at + self.expiry_bound

    def violation(self, application: str, user: str, time: float) -> bool:
        """An *allowed* access at ``time`` violates the paper's
        guarantee iff the user is unauthorized and past the grace
        window."""
        if self.is_authorized(application, user):
            return False
        return not self.in_grace(application, user, time)


class _Requester:
    """The access workloads' one request: ask, count, report.

    Figure 3's steady state is a cache hit, and a hit schedules nothing:
    the host's ``probe_access`` decides it inside the caller's step and
    it is reported there.  Only a miss becomes a process, the host's
    ``check_access`` itself, and its decision is reported when it ends.
    """

    system: AccessControlSystem
    application: str
    on_decision: Optional[Callable[[ObservedDecision], None]]
    decisions: int

    def _request(self, host: AccessControlHost, user: str, authorized: Optional[bool]):
        """``user`` asks ``host`` now; the decision is counted and
        reported with ``authorized``, the ground truth at the ask.

        Returns None when the decision is already made, else the process
        deciding it, which a caller may wait on.
        """
        env = self.system.env
        started = env.now
        decision = host.probe_access(self.application, user, Right.USE)
        if decision is not None:
            self._report(started, host, user, authorized, decision)
            return None
        check = env.process(host.check_access(self.application, user, Right.USE, missed=True))

        def report(process) -> None:
            if not process.ok:
                raise process.value
            self._report(started, host, user, authorized, process.value)

        check.add_callback(report)
        return check

    def _report(self, started: float, host: AccessControlHost, user: str,
                authorized: Optional[bool], decision: AccessDecision) -> None:
        self.decisions += 1
        # Looked up per decision: a subscriber may be attached at any time.
        if self.on_decision is not None:
            self.on_decision(ObservedDecision(
                started, host.address, user, self.application, decision, authorized
            ))


class AccessWorkload(_Requester):
    """Poisson stream of access attempts against a set of hosts.

    ``rate`` is either a flat float (homogeneous Poisson — the
    historical, draw-identical path) or a
    :class:`~repro.workloads.population.DiurnalRate` (non-homogeneous
    Poisson realised by thinning against the profile's peak rate).
    """

    def __init__(
        self,
        system: AccessControlSystem,
        application: str,
        population: UserPopulation,
        oracle: AuthorizationOracle,
        rate: Union[float, DiurnalRate],
        rng: Optional[random.Random] = None,
        hosts: Optional[Sequence[AccessControlHost]] = None,
        on_decision: Optional[Callable[[ObservedDecision], None]] = None,
    ):
        if not isinstance(rate, DiurnalRate) and rate <= 0:
            raise ValueError("access rate must be positive")
        self.system = system
        self.application = application
        self.population = population
        self.oracle = oracle
        self.rate = rate
        self.rng = rng or system.streams.stream("access-workload")
        self.hosts = list(hosts) if hosts is not None else list(system.hosts)
        if not self.hosts:
            raise ValueError("workload needs at least one host")
        #: Consumers subscribe to decisions via ``on_decision``; nothing
        #: is retained, so memory stays O(1) in simulated traffic.
        #: ``decisions`` counts completed decisions.
        self.on_decision = on_decision
        self.attempts = 0
        self.decisions = 0
        self._process = system.env.process(self._drive(), name="access-workload")

    def _drive(self):
        env = self.system.env
        profile = self.rate if isinstance(self.rate, DiurnalRate) else None
        flat_rate = profile.peak if profile is not None else self.rate
        while True:
            yield env.timeout(self.rng.expovariate(flat_rate))
            if profile is not None:
                # Thinning: accept each candidate arrival with
                # probability rate(t)/peak, yielding the exact
                # non-homogeneous Poisson process.
                if self.rng.random() * profile.peak > profile.rate(env.now):
                    continue
            host = self.rng.choice(self.hosts)
            if not host.up:
                continue  # the user "simply has to locate a new host"
            user = self.population.sample(self.rng)
            self.attempts += 1
            # A miss runs as its own process, so attempts overlap like
            # independent users do.
            self._request(host, user, self.oracle.is_authorized(self.application, user))


class PeriodicWorkload(_Requester):
    """Closed-loop users, each pinned to one host.

    At ``start`` every user begins on a host drawn from ``hosts`` (all
    of the system's by default): it asks for access, waits for the
    decision, pauses ``think_time`` seconds, and asks again, until it
    has made ``accesses_per_user`` requests or simulated time reaches
    ``until``.  ``done`` fires once every user has stopped.  Each
    decision goes to ``on_decision`` with its ground truth from
    ``oracle`` (``authorized`` is ``None`` without one).
    """

    def __init__(
        self,
        system: AccessControlSystem,
        application: str,
        users: Sequence[str],
        oracle: Optional[AuthorizationOracle] = None,
        start: float = 0.0,
        accesses_per_user: Optional[int] = None,
        think_time: float = 2.0,
        until: float = math.inf,
        rng: Optional[random.Random] = None,
        hosts: Optional[Sequence[AccessControlHost]] = None,
        on_decision: Optional[Callable[[ObservedDecision], None]] = None,
    ):
        if accesses_per_user is not None and accesses_per_user < 1:
            raise ValueError("each user must access at least once")
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.system = system
        self.application = application
        self.users = list(users)
        self.oracle = oracle
        self.start = start
        self.accesses_per_user = accesses_per_user
        self.think_time = think_time
        self.until = until
        self.rng = rng or system.streams.stream("periodic")
        self.hosts = list(hosts) if hosts is not None else list(system.hosts)
        self.on_decision = on_decision
        self.decisions = 0
        self.done = system.env.event()
        self._remaining = len(self.users)
        system.env.process(self._drive(), name="periodic")

    def _drive(self):
        env = self.system.env
        if self.start > env.now:
            yield env.timeout(self.start - env.now)
        if not self.users:
            self.done.succeed()
            return
        for user in self.users:
            env.process(self._user(user), name=f"periodic:{user}")

    def _user(self, user: str):
        env = self.system.env
        application, oracle = self.application, self.oracle
        host = self.rng.choice(self.hosts)
        made = 0
        while made != self.accesses_per_user and env.now < self.until:
            authorized = None if oracle is None else oracle.is_authorized(application, user)
            check = self._request(host, user, authorized)
            if check is not None:
                yield check
            made += 1
            if self.think_time > 0:
                yield env.timeout(self.think_time)
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed()


class FlashCrowdWorkload(PeriodicWorkload):
    """A burst of fresh users arriving at once.

    Models launch-day traffic: at ``start`` every user in the crowd
    begins accessing (each from a random host, every ``think_time``
    seconds, ``accesses_per_user`` times).  Because the users are new,
    every first access is a cache miss — the worst case for manager
    load, which then collapses as caches warm (the effect the paper's
    caching design exists to produce).
    """

    def __init__(
        self,
        system: AccessControlSystem,
        application: str,
        users: Sequence[str],
        oracle: AuthorizationOracle,
        start: float,
        accesses_per_user: int = 5,
        think_time: float = 2.0,
        rng: Optional[random.Random] = None,
        **options: Any,
    ):
        super().__init__(
            system, application, users, oracle, start, accesses_per_user, think_time,
            rng=rng or system.streams.stream("flash-crowd"), **options,
        )


class UpdateWorkload:
    """Poisson stream of Add/Revoke operations issued by managers.

    Each operation picks a manager uniformly (skipping crashed ones)
    and flips a user's authorization: authorized users get revoked,
    unauthorized users get added, keeping roughly ``target_fraction``
    of the population authorized.  The oracle is updated at issue time
    — the paper's security guarantee is measured from the moment the
    manager issues the revocation.
    """

    def __init__(
        self,
        system: AccessControlSystem,
        application: str,
        population: UserPopulation,
        oracle: AuthorizationOracle,
        rate: float,
        rng: Optional[random.Random] = None,
        managers: Optional[Sequence[AccessControlManager]] = None,
        target_fraction: float = 0.8,
        on_update: Optional[Callable[[str, str, bool, float], None]] = None,
    ):
        if rate <= 0:
            raise ValueError("update rate must be positive")
        if not 0.0 < target_fraction < 1.0:
            raise ValueError("target_fraction must be in (0, 1)")
        self.system = system
        self.application = application
        self.population = population
        self.oracle = oracle
        self.rate = rate
        self.rng = rng or system.streams.stream("update-workload")
        self.managers = list(managers) if managers is not None else list(system.managers)
        self.target_fraction = target_fraction
        self.on_update = on_update
        self.adds = 0
        self.revokes = 0
        self._process = system.env.process(self._drive(), name="update-workload")

    def _drive(self):
        env = self.system.env
        while True:
            yield env.timeout(self.rng.expovariate(self.rate))
            live = [m for m in self.managers if m.up and not m.recovering]
            if not live:
                continue
            manager = self.rng.choice(live)
            user = self.population.sample(self.rng)
            authorized = self.oracle.is_authorized(self.application, user)
            # Bias the flip towards maintaining the target fraction.
            n_authorized = self.oracle.authorized_count(self.application)
            fraction = n_authorized / len(self.population)
            if authorized and fraction > self.target_fraction:
                self._revoke(manager, user)
            elif not authorized and fraction < self.target_fraction:
                self._add(manager, user)
            elif authorized:
                self._revoke(manager, user)
            else:
                self._add(manager, user)

    def _add(self, manager: AccessControlManager, user: str) -> None:
        self.adds += 1
        self.oracle.grant(self.application, user)
        manager.add(self.application, user, Right.USE)
        if self.on_update is not None:
            self.on_update(self.application, user, True, self.system.env.now)

    def _revoke(self, manager: AccessControlManager, user: str) -> None:
        self.revokes += 1
        now = self.system.env.now
        self.oracle.revoke(self.application, user, now)
        manager.revoke(self.application, user, Right.USE)
        if self.on_update is not None:
            self.on_update(self.application, user, False, now)
