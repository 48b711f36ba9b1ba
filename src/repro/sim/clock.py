"""Drifting local clocks with a bounded rate.

Section 3.2 of the paper bases its time-bounded revocation guarantee on
an assumption about local clocks: there is a known constant ``b >= 1``
such that every local clock is *at most b times slower* than real time.
Formally, if a local clock measures ``t`` local units then at most
``b * t`` real time units have passed.  Given that bound, a manager that
wants rights to expire within ``Te`` real time units hands out a cache
lifetime of ``te = Te / b`` *local* units — even the slowest admissible
clock then expires the entry within ``Te`` real units.

:class:`LocalClock` models such a clock: a fixed rate ``rho`` (local
units per real unit) and an arbitrary offset.  The paper's bound
corresponds to ``rho >= 1 / b``; clocks may also run fast, which is
always safe for expiry (entries just expire early).

Example
-------
>>> from repro.sim.engine import Environment
>>> env = Environment()
>>> clock = LocalClock(env, rate=0.5, offset=100.0)   # a clock 2x slow
>>> clock.now()
100.0
>>> env.run(until=10)
>>> clock.now()
105.0
"""

from __future__ import annotations

import random
from typing import Optional

from .engine import Environment

__all__ = ["LocalClock", "ClockFactory"]


class LocalClock:
    """A host-local clock: ``local(t) = offset + rate * (t - t0)``.

    Parameters
    ----------
    env:
        The simulation environment supplying real time.
    rate:
        Local time units per real time unit.  ``rate < 1`` is a slow
        clock; the paper's assumption is ``rate >= 1 / b``.
    offset:
        Local time shown at creation.  Offsets between hosts are
        unconstrained — the protocol never compares timestamps from
        different clocks, only durations on one clock.
    """

    def __init__(self, env: Environment, rate: float = 1.0, offset: float = 0.0):
        if rate <= 0:
            raise ValueError(f"clock rate must be positive, got {rate}")
        self.env = env
        self.rate = rate
        self.offset = offset
        self._t0 = env.now

    def now(self) -> float:
        """Current local time (the paper's ``Time()``)."""
        return self.offset + self.rate * (self.env.now - self._t0)

    def __repr__(self) -> str:
        return f"<LocalClock rate={self.rate:.6f} now={self.now():.3f}>"


class ClockFactory:
    """Builds per-host clocks with rates drawn from ``[1/b, max_rate]``.

    The paper assumes ``b`` "fairly close to 1"; the default drift of a
    few percent reflects commodity quartz oscillators.  The factory also
    randomises offsets so tests cannot accidentally depend on clocks
    agreeing in absolute value.
    """

    def __init__(
        self,
        env: Environment,
        b: float = 1.05,
        max_rate: float = 1.0,
        max_offset: float = 1_000.0,
        rng: Optional[random.Random] = None,
    ):
        if b < 1.0:
            raise ValueError(f"slowness bound b must be >= 1, got {b}")
        if max_rate < 1.0 / b:
            raise ValueError("max_rate below the slowest admissible rate 1/b")
        self.env = env
        self.b = b
        self.max_rate = max_rate
        self.max_offset = max_offset
        self.rng = rng or random.Random(0)

    def make(self) -> LocalClock:
        """Create a clock with a uniformly drawn admissible rate."""
        rate = self.rng.uniform(1.0 / self.b, self.max_rate)
        offset = self.rng.uniform(0.0, self.max_offset)
        return LocalClock(self.env, rate=rate, offset=offset)

    def perfect(self) -> LocalClock:
        """A rate-1, zero-offset clock (for baselines and debugging)."""
        return LocalClock(self.env, rate=1.0, offset=0.0)
