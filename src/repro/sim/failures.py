"""Host crash/recovery injection.

The paper assumes "failures of individual hosts are relatively rare
(e.g., the MTTF of any individual host being on the order of several
weeks [15])" but that recoveries happen and must be handled
(Section 3.4).  :class:`CrashRecoveryInjector` drives each node through
alternating UP (mean ``mttf``) and DOWN (mean ``mttr``) exponential
periods, calling ``node.crash()`` / ``node.recover()`` so subclass
hooks run.

Deterministic one-shot injections for tests are provided by
:func:`schedule_crash` and :func:`schedule_recovery`.

Interaction with the network's reachability epoch cache: crash and
recovery flip ``Node.up``, which the network checks *outside* the
cached connectivity answer (see :meth:`repro.sim.network.Network.reachable`),
so these transitions need no epoch bump to stay exact — partitions and
link toggles invalidate via
:meth:`repro.sim.partitions.ConnectivityModel.bump_epoch`, up/down state
is read fresh on every decision.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .engine import Environment
from .node import Node
from .trace import TraceKind, Tracer

__all__ = [
    "CrashRecoveryInjector",
    "schedule_crash",
    "schedule_recovery",
    "WEEKS",
]

#: Simulated seconds per week (the sim's time unit is one second).
WEEKS = 7 * 24 * 3600.0


class CrashRecoveryInjector:
    """Continuously crashes and recovers a set of nodes.

    Parameters
    ----------
    env, tracer, rng:
        Simulation plumbing.
    nodes:
        Nodes to manage.  Each gets an independent renewal process.
    mttf:
        Mean time to failure (exponential), measured while UP.
        Default: three weeks, per the paper's citation of [15].
    mttr:
        Mean time to repair (exponential), measured while DOWN.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Iterable[Node],
        mttf: float = 3 * WEEKS,
        mttr: float = 4 * 3600.0,
        rng: Optional[random.Random] = None,
        tracer: Optional[Tracer] = None,
    ):
        if mttf <= 0 or mttr <= 0:
            raise ValueError("mttf and mttr must be positive")
        self.env = env
        self.nodes = list(nodes)
        self.mttf = mttf
        self.mttr = mttr
        self.rng = rng or random.Random(0)
        self.tracer = tracer
        self.crashes_injected = 0
        for node in self.nodes:
            env.process(self._drive(node), name=f"failures:{node.address}")

    @property
    def steady_state_availability(self) -> float:
        """Long-run fraction of time a node is up: mttf / (mttf + mttr)."""
        return self.mttf / (self.mttf + self.mttr)

    def _drive(self, node: Node):
        tracer = self.tracer
        while True:
            yield self.env.timeout(self.rng.expovariate(1.0 / self.mttf))
            if node.up:
                node.crash()
                self.crashes_injected += 1
                if tracer is not None:
                    tracer.publish(TraceKind.HOST_CRASHED, node.address)
            yield self.env.timeout(self.rng.expovariate(1.0 / self.mttr))
            if not node.up:
                node.recover()
                if tracer is not None:
                    tracer.publish(TraceKind.HOST_RECOVERED, node.address)


def schedule_crash(
    env: Environment, node: Node, at: float, tracer: Optional[Tracer] = None
):
    """Crash ``node`` at absolute simulated time ``at`` (one-shot)."""

    def _proc():
        delay = at - env.now
        if delay < 0:
            raise ValueError(f"crash time {at} is in the past (now={env.now})")
        yield env.timeout(delay)
        node.crash()
        if tracer is not None:
            tracer.publish(TraceKind.HOST_CRASHED, node.address)

    return env.process(_proc(), name=f"crash:{node.address}")


def schedule_recovery(
    env: Environment, node: Node, at: float, tracer: Optional[Tracer] = None
):
    """Recover ``node`` at absolute simulated time ``at`` (one-shot)."""

    def _proc():
        delay = at - env.now
        if delay < 0:
            raise ValueError(f"recovery time {at} is in the past (now={env.now})")
        yield env.timeout(delay)
        node.recover()
        if tracer is not None:
            tracer.publish(TraceKind.HOST_RECOVERED, node.address)

    return env.process(_proc(), name=f"recover:{node.address}")
