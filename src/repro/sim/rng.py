"""Seeded random-number streams for reproducible simulations.

Every stochastic component (network latency, partition model, failure
injector, workload generator, clock drift) draws from its *own* named
stream derived from a single master seed.  This keeps runs reproducible
and, more importantly, keeps them *comparable*: adding a new component
or reordering draws in one component does not perturb the randomness
seen by the others, so parameter sweeps isolate the parameter.

Example
-------
>>> streams = RngStreams(master_seed=42)
>>> net_rng = streams.stream("network")
>>> fail_rng = streams.stream("failures")
>>> streams.stream("network") is net_rng   # streams are memoised
True
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so that the mapping is stable across Python versions
    and processes (unlike ``hash``, which is salted).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A family of independent, named ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the memoised ``random.Random`` for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def __repr__(self) -> str:
        return f"<RngStreams seed={self.master_seed} streams={sorted(self._streams)}>"
