"""Network partition models.

The paper's failure assumptions: "temporary network partitions caused
mostly by network congestion can be frequent", and its analysis assumes
"the probability of a site s1 being inaccessible from site s2 ... is
identical and independent for any two sites" (the parameter ``Pi``).

A :class:`ConnectivityModel` answers one question — is the pair
``(a, b)`` currently connected? — and may run background processes that
evolve that answer over time.  Models:

:class:`FullConnectivity`
    Never partitioned.
:class:`ScriptedConnectivity`
    Tests, experiments, the fuzzer and the live cell toggle individual
    links or impose/heal whole partitions at chosen times.
:class:`PairEpochModel`
    Each unordered pair alternates between UP and DOWN periods with
    exponential durations chosen so the stationary probability of DOWN
    is ``pi``.  With outage durations much longer than a query round
    trip and accesses spaced far apart, successive accesses see
    approximately independent Bernoulli(``pi``) inaccessibility — the
    regime the paper's analysis describes.  Drives the simulated cell.
:class:`SampledConnectivity`
    Pair states redrawn i.i.d. Bernoulli(``pi``) only on an explicit
    ``resample()`` — the paper's Section 4.1 model exactly, used by the
    Table 1 validation experiment.
:class:`DutyCycleModel`
    Per-node connect/disconnect cycling, the mobile-client model.

Topology transitions are cold (never per message), so they trace with
a plain :meth:`~repro.sim.trace.Tracer.publish`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .engine import Environment
from .trace import TraceKind, Tracer

__all__ = [
    "ConnectivityModel",
    "FullConnectivity",
    "ScriptedConnectivity",
    "PairEpochModel",
    "SampledConnectivity",
    "DutyCycleModel",
    "pair_key",
]


def pair_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical unordered pair key (connectivity is symmetric)."""
    return (a, b) if a <= b else (b, a)


class ConnectivityModel:
    """Base class; ``attach`` is called once by the Network.

    Topology epoch
    --------------
    Every model answers reachability
    from state that changes only at discrete events (a scripted toggle,
    a renewal-process transition, a resample).  Such models carry a
    monotonically increasing :attr:`epoch` and bump it on *every* state
    transition; the :class:`~repro.sim.network.Network` caches
    reachability answers and invalidates the cache whenever the epoch
    moves, so the steady-state cost of a reachability check is two flat
    table lookups instead of a model query per message.

    Models whose state *is* a partition into components additionally
    expose :meth:`component_table`: a flat ``address -> component-id``
    mapping valid until the next epoch bump, under the convention that
    unlisted addresses share the implicit component ``-1``.  Models with
    per-link state (individual downed links, per-pair renewal processes)
    return ``None`` and are served from a per-pair memo instead; only
    they define ``is_reachable(a, b)``, the per-pair answer the memo
    (and a live transport's per-send check) asks for.
    """

    def __init__(self) -> None:
        self.env: Optional[Environment] = None
        self.rng: Optional[random.Random] = None
        self.tracer: Optional[Tracer] = None
        #: Monotonic topology-epoch counter; bumped on every transition.
        self.epoch: int = 0

    def attach(self, env: Environment, rng: random.Random, tracer: Tracer) -> None:
        self.env = env
        self.rng = rng
        self.tracer = tracer

    def bump_epoch(self) -> None:
        """Invalidate cached reachability: the topology just changed."""
        self.epoch += 1

    def component_table(self) -> Optional[Dict[str, int]]:
        """Flat ``address -> component-id`` map for the current epoch.

        ``None`` when the current state is not expressible as a clean
        partition into components (per-link exceptions, per-pair state);
        the network then falls back to a per-pair memo.  Addresses
        missing from the table share the implicit component ``-1``.
        """
        return None


class FullConnectivity(ConnectivityModel):
    """No partitions, ever."""

    def component_table(self) -> Dict[str, int]:
        return {}  # everyone shares the implicit component


class ScriptedConnectivity(ConnectivityModel):
    """Link state driven explicitly by the test or experiment.

    All links start UP.  ``set_down``/``set_up`` toggle one (symmetric)
    link; ``partition``/``heal`` impose or remove a grouping on top of
    the link map.  A pair is reachable iff its link is up *and* the
    current grouping (if any) places both endpoints together.
    """

    def __init__(self) -> None:
        super().__init__()
        self._down: set[Tuple[str, str]] = set()
        self._component: Optional[Dict[str, int]] = None

    def set_down(self, a: str, b: str) -> None:
        self._down.add(pair_key(a, b))
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.publish(TraceKind.LINK_DOWN, "scripted", a=a, b=b)

    def set_up(self, a: str, b: str) -> None:
        self._down.discard(pair_key(a, b))
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.publish(TraceKind.LINK_UP, "scripted", a=a, b=b)

    def isolate(self, address: str, others: Iterable[str]) -> None:
        """Cut every link between ``address`` and each of ``others``."""
        for other in others:
            if other != address:
                self.set_down(address, other)

    def reconnect(self, address: str, others: Iterable[str]) -> None:
        """Restore every link between ``address`` and each of ``others``."""
        for other in others:
            if other != address:
                self.set_up(address, other)

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Impose a grouping; pairs in different groups become unreachable."""
        component: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for address in group:
                component[address] = index
        self._component = component
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.publish(
                TraceKind.PARTITION_STARTED, "scripted", groups=len(groups)
            )

    def heal(self) -> None:
        """Fully restore connectivity: remove the grouping AND revive
        every individually downed link.

        The live backend holds this same class (unattached, so it
        traces nothing), so both backends heal alike.  Use
        ``set_up``/``reconnect`` to restore individual links selectively.
        """
        self._down.clear()
        self._component = None
        self.bump_epoch()
        tracer = self.tracer
        if tracer is not None:
            tracer.publish(TraceKind.PARTITION_HEALED, "scripted")

    def component_table(self) -> Optional[Dict[str, int]]:
        if self._down:
            return None  # per-link exceptions break the component shape
        component = self._component
        return component if component is not None else {}

    def is_reachable(self, a: str, b: str) -> bool:
        if pair_key(a, b) in self._down:
            return False
        if self._component is not None:
            # Unlisted addresses share an implicit component.
            if self._component.get(a, -1) != self._component.get(b, -1):
                return False
        return True


class _PairState:
    """Alternating-renewal state for one unordered pair."""

    __slots__ = ("down",)

    def __init__(self, down: bool):
        self.down = down


class PairEpochModel(ConnectivityModel):
    """Per-pair alternating UP/DOWN periods with stationary P(down)=pi.

    Durations are exponential: DOWN with mean ``mean_outage`` and UP
    with mean ``mean_outage * (1 - pi) / pi``, giving the stationary
    down-fraction ``pi``.  Pair state is created lazily (with its
    stationary distribution) the first time a pair is queried, so the
    model needs no advance knowledge of the address set.
    """

    def __init__(self, pi: float, mean_outage: float = 60.0):
        super().__init__()
        if not 0.0 <= pi < 1.0:
            raise ValueError(f"pi must be in [0, 1), got {pi}")
        if mean_outage <= 0:
            raise ValueError("mean_outage must be positive")
        self.pi = pi
        self.mean_outage = mean_outage
        self._pairs: Dict[Tuple[str, str], _PairState] = {}

    @property
    def mean_uptime(self) -> float:
        if self.pi == 0.0:
            return float("inf")
        return self.mean_outage * (1.0 - self.pi) / self.pi

    def _state(self, key: Tuple[str, str]) -> _PairState:
        state = self._pairs.get(key)
        if state is None:
            assert self.rng is not None and self.env is not None, "model not attached"
            state = _PairState(down=self.rng.random() < self.pi)
            self._pairs[key] = state
            if self.pi > 0.0:
                self.env.process(self._toggle(key, state), name=f"link:{key}")
        return state

    def _toggle(self, key: Tuple[str, str], state: _PairState):
        # Ends once ``pi`` drops to 0: every pair is then reachable and
        # an UP period would be infinite.
        assert self.rng is not None and self.env is not None
        while self.pi > 0.0:
            if state.down:
                duration = self.rng.expovariate(1.0 / self.mean_outage)
            else:
                duration = self.rng.expovariate(1.0 / self.mean_uptime)
            yield self.env.timeout(duration)
            state.down = not state.down
            self.bump_epoch()
            tracer = self.tracer
            if tracer is not None:
                kind = TraceKind.LINK_DOWN if state.down else TraceKind.LINK_UP
                tracer.publish(kind, "pair_epoch", a=key[0], b=key[1])

    def is_reachable(self, a: str, b: str) -> bool:
        if self.pi == 0.0:
            return True
        return not self._state(pair_key(a, b)).down


class SampledConnectivity(ConnectivityModel):
    """Pair states frozen between explicit ``resample()`` calls.

    Each ``resample()`` draws every (lazily discovered) pair DOWN with
    probability ``pi``, independently; the draw then holds until the
    next call.  This makes successive protocol interactions *exactly*
    i.i.d. Bernoulli(``pi``) experiments — the paper's Section 4.1
    model — which is what the Table 1 validation experiment needs.
    No background processes are involved, so trials are cheap.
    """

    def __init__(self, pi: float):
        super().__init__()
        if not 0.0 <= pi < 1.0:
            raise ValueError(f"pi must be in [0, 1), got {pi}")
        self.pi = pi
        self._down: Dict[Tuple[str, str], bool] = {}

    def _state(self, key: Tuple[str, str]) -> bool:
        if key not in self._down:
            assert self.rng is not None, "model not attached"
            self._down[key] = self.rng.random() < self.pi
        return self._down[key]

    def resample(self) -> None:
        """Redraw the state of every known pair (new pairs draw lazily)."""
        assert self.rng is not None, "model not attached"
        for key in self._down:
            self._down[key] = self.rng.random() < self.pi
        self.bump_epoch()

    def is_reachable(self, a: str, b: str) -> bool:
        if self.pi == 0.0:
            return True
        return not self._state(pair_key(a, b))


class DutyCycleModel(ConnectivityModel):
    """Per-node connect/disconnect cycling — the mobile-client model.

    The paper's footnote 1: "similar problems exist in mobile computing
    systems, so our solutions could be applied in this context as
    well."  Each listed *target* node alternates CONNECTED
    (exponential, mean ``mean_connected``) and DISCONNECTED
    (exponential, mean ``mean_disconnected``) periods; while
    disconnected, every link touching the node is down.  Non-target
    nodes (the fixed infrastructure) are always connected to each
    other.
    """

    def __init__(
        self,
        targets: Sequence[str],
        mean_connected: float,
        mean_disconnected: float,
    ):
        super().__init__()
        if mean_connected <= 0 or mean_disconnected <= 0:
            raise ValueError("duty-cycle means must be positive")
        self.targets = tuple(targets)
        self.mean_connected = mean_connected
        self.mean_disconnected = mean_disconnected
        self._disconnected: set[str] = set()

    @property
    def disconnected_fraction(self) -> float:
        """Stationary fraction of time a target is disconnected."""
        return self.mean_disconnected / (self.mean_connected + self.mean_disconnected)

    def attach(self, env: Environment, rng: random.Random, tracer: Tracer) -> None:
        super().attach(env, rng, tracer)
        for target in self.targets:
            env.process(self._cycle(target), name=f"duty-cycle:{target}")

    def _cycle(self, target: str):
        assert self.env is not None and self.rng is not None
        # Start in the stationary distribution.
        if self.rng.random() < self.disconnected_fraction:
            self._disconnected.add(target)
            self.bump_epoch()
        while True:
            if target in self._disconnected:
                duration = self.rng.expovariate(1.0 / self.mean_disconnected)
            else:
                duration = self.rng.expovariate(1.0 / self.mean_connected)
            yield self.env.timeout(duration)
            tracer = self.tracer
            if target in self._disconnected:
                self._disconnected.discard(target)
                self.bump_epoch()
                if tracer is not None:
                    tracer.publish(TraceKind.LINK_UP, "duty_cycle", a=target, b="*")
            else:
                self._disconnected.add(target)
                self.bump_epoch()
                if tracer is not None:
                    tracer.publish(
                        TraceKind.LINK_DOWN, "duty_cycle", a=target, b="*"
                    )

    def component_table(self) -> Dict[str, int]:
        # Each disconnected node is its own island; everyone else shares
        # the implicit component.  Sorted so the table is deterministic.
        return {
            address: index + 1
            for index, address in enumerate(sorted(self._disconnected))
        }
