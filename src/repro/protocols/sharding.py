"""Consistent-hash sharding of objects across manager groups.

ACGreGate's framing (PAPERS.md): access control state as *sharded,
weakly-consistent replicated data*.  A :class:`HashRing` consistently
hashes object (application) names onto ``K`` shards; a
:class:`ShardRouter` maps each shard to an independent manager *group*,
each running its own unmodified quorum/freeze dissemination instance.
Hosts resolve ``Managers(A)`` through the router, so queries and
revocations reach exactly the owning group while dissemination,
freezing, and recovery stay per-group concerns.

Determinism contract
--------------------
Ring placement MUST be identical across processes, pool workers, and
interpreter restarts, because fuzz cells, golden traces, and ``--jobs
N`` merges all assume a pure function from (name, shard count) to
shard.  Python's builtin ``hash`` is salted per-process
(``PYTHONHASHSEED``), so the ring hashes with ``blake2b`` over the
UTF-8 name instead — a content hash with no process state.

Monotone remapping
------------------
Virtual nodes (``vnodes`` points per shard) give both balance and the
classic consistent-hashing property: adding a shard only *moves keys to
the new shard* (never between old shards), and removing one only moves
its keys elsewhere.  The Hypothesis suite pins both properties.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

__all__ = ["HashRing", "ShardRouter"]

#: Virtual nodes per shard; 64 keeps the max/mean load ratio tight at
#: small K without noticeable build cost.
DEFAULT_VNODES = 64


def _point(label: str) -> int:
    """Ring coordinate for a vnode label: 64-bit blake2b content hash."""
    return int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring over shard indices ``0..n_shards-1``.

    ``salt`` namespaces rings so two systems with equal shard counts
    don't correlate placements.  Vnode coordinates depend only on
    (salt, shard, replica), so a ring over one more shard adds points
    without moving existing ones: the monotone-remapping property.
    """

    def __init__(
        self, n_shards: int, vnodes: int = DEFAULT_VNODES, salt: str = ""
    ) -> None:
        if n_shards < 1:
            raise ValueError("a ring needs at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.n_shards = n_shards
        self.vnodes = vnodes
        self.salt = salt
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(vnodes):
                points.append((_point(f"{salt}|{shard}|{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, name: str) -> int:
        """The shard owning ``name`` — pure, process-independent."""
        coordinate = _point(f"{self.salt}#{name}")
        index = bisect.bisect_right(self._points, coordinate)
        if index == len(self._points):
            index = 0  # wrap around the ring
        return self._owners[index]

    def __repr__(self) -> str:
        return f"<HashRing shards={self.n_shards} vnodes={self.vnodes}>"


class ShardRouter:
    """Maps object names to their owning manager group via the ring.

    ``groups`` is the per-shard tuple of manager addresses; group ``g``
    runs one independent dissemination instance over exactly those
    managers.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[str]],
        vnodes: int = DEFAULT_VNODES,
        salt: str = "",
    ) -> None:
        if not groups:
            raise ValueError("a router needs at least one manager group")
        self.groups: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(group) for group in groups
        )
        for index, group in enumerate(self.groups):
            if not group:
                raise ValueError(f"manager group {index} is empty")
        self.ring = HashRing(len(self.groups), vnodes=vnodes, salt=salt)
        self._memo: Dict[str, int] = {}

    def shard_of(self, name: str) -> int:
        """Owning shard index for an object name (memoised)."""
        shard = self._memo.get(name)
        if shard is None:
            shard = self.ring.shard_for(name)
            self._memo[name] = shard
        return shard

    def group_for(self, name: str) -> Tuple[str, ...]:
        """The manager addresses serving ``name``."""
        return self.groups[self.shard_of(name)]

    def __repr__(self) -> str:
        sizes = "+".join(str(len(g)) for g in self.groups)
        return f"<ShardRouter shards={len(self.groups)} managers={sizes}>"
