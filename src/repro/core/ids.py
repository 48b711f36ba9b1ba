"""Identity interning: dense int ids for principals, origins, and nodes.

Hot structures (ACL columns, cache keys, deny tables) key their state by
small integers instead of Python strings.  An :class:`Interner` owns the
name↔id mapping; ids are dense (0, 1, 2, ...) in first-intern order so
they can index flat arrays directly.

Names remain the wire and trace format — interning is an in-memory
representation choice only, and translation back to names happens at
trace/debug boundaries via :meth:`Interner.name_of`.

For mega-populations (10^5–10^6 principals named ``u0`` ... ``u<n-1>``)
the interner supports a *dense prefix* mode: names matching
``<prefix><i>`` for ``i < dense_count`` map arithmetically to id ``i``
with **no per-name storage at all**.  Only names outside the dense
range (manager addresses, ad-hoc users) occupy dict slots.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from .rights import Right

__all__ = [
    "Interner", "NameRange", "RIGHTS", "dense_index", "pack_key",
]

#: Rights in packed-key order (``right.index``); ``RIGHTS[key & 1]`` recovers the right.
RIGHTS = (Right.USE, Right.MANAGE)


def pack_key(uid: int, right_index: int) -> int:
    """Pack a (user id, right) pair into one int key."""
    return uid * 2 + right_index


def dense_index(name: str, prefix: str) -> int:
    """``i`` if ``name`` is exactly ``f"{prefix}{i}"``, else -1.

    Canonical ASCII decimal only: ``u01`` must not alias ``u1``, and
    ``str.isdigit`` alone would let ``u٣`` alias ``u3`` (``int`` reads
    any Unicode decimal) and ``u²`` crash it (a digit ``int`` rejects).
    """
    if not name.startswith(prefix):
        return -1
    digits = name[len(prefix):]
    if not (digits.isascii() and digits.isdigit()) or (len(digits) > 1 and digits[0] == "0"):
        return -1
    return int(digits)


class NameRange(Sequence[str]):
    """The virtual list ``[f"{prefix}{i}" for i in range(n)]``.

    Supports everything list-shaped callers use — indexing, slicing,
    iteration, ``in``, ``index`` and ``==`` against real lists —
    without materialising n strings.  An :class:`Interner` whose dense
    block covers it interns it without formatting a name.
    """

    __slots__ = ("prefix", "_n")

    def __init__(self, prefix: str, n: int):
        self.prefix = prefix
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError("name index out of range")
        return f"{self.prefix}{index}"

    def __iter__(self) -> Iterator[str]:
        prefix = self.prefix
        return (f"{prefix}{i}" for i in range(self._n))

    def _parse(self, name: str) -> Optional[int]:
        index = dense_index(name, self.prefix)  # -1: not a canonical spelling
        return index if 0 <= index < self._n else None

    def index(self, name: str, *args) -> int:  # O(1), unlike list.index
        parsed = self._parse(name) if isinstance(name, str) else None
        if parsed is None:
            raise ValueError(f"{name!r} is not in the range")
        return parsed

    def __repr__(self) -> str:
        return f"NameRange({self.prefix!r}, {self._n})"


class Interner:
    """Bidirectional name↔dense-int-id map with optional arithmetic core.

    ``intern`` assigns (and remembers) an id; ``get`` looks one up
    without creating it, so read paths never grow the table on unknown
    names.  Ids start at 0 and are dense, which makes them usable as
    direct array indices.

    With ``dense_prefix``/``dense_count`` set, the names
    ``f"{dense_prefix}{i}"`` for ``0 <= i < dense_count`` are mapped by
    parsing — nothing is stored for them — and extra names are offset
    past the dense block.  This is what lets a million-principal
    population share one interner in O(1) memory.
    """

    __slots__ = ("_ids", "_names", "_dense_prefix", "_dense_count")

    def __init__(
        self, dense_prefix: Optional[str] = None, dense_count: int = 0
    ) -> None:
        if dense_count < 0:
            raise ValueError("dense_count must be non-negative")
        if dense_count and dense_prefix is None:
            raise ValueError("dense_count requires a dense_prefix")
        self._dense_prefix = dense_prefix
        self._dense_count = dense_count
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []

    # -- dense-prefix arithmetic ------------------------------------------------
    def _dense_id(self, name: str) -> Optional[int]:
        """Id for a name inside the dense block, or None."""
        prefix = self._dense_prefix
        if prefix is None:
            return None
        index = dense_index(name, prefix)
        return index if 0 <= index < self._dense_count else None

    # -- core API ---------------------------------------------------------------
    def intern(self, name: str) -> int:
        """Id for ``name``, assigning a fresh dense id on first sight."""
        dense = self._dense_id(name)
        if dense is not None:
            return dense
        uid = self._ids.get(name)
        if uid is None:
            uid = self._dense_count + len(self._names)
            self._ids[name] = uid
            self._names.append(name)
        return uid

    def intern_many(self, names: Sequence[str]) -> Sequence[int]:
        """``[self.intern(name) for name in names]``, in bulk.

        Fresh names get ids in first-sight order, exactly as interning
        them one at a time would.  A :class:`NameRange` inside the dense
        block maps to ``range(len(names))`` without formatting a name.
        """
        prefix = self._dense_prefix
        if prefix is not None:
            if (
                type(names) is NameRange
                and names.prefix == prefix
                and len(names) <= self._dense_count
            ):
                return range(len(names))
            return [self.intern(name) for name in names]
        ids = self._ids
        fresh = [name for name in dict.fromkeys(names) if name not in ids]
        if fresh:
            first = len(self._names)
            ids.update(zip(fresh, range(first, first + len(fresh))))
            self._names.extend(fresh)
        return list(map(ids.__getitem__, names))

    def get(self, name: str) -> Optional[int]:
        """Id for ``name`` if already interned (or dense); else None."""
        dense = self._dense_id(name)
        if dense is not None:
            return dense
        return self._ids.get(name)

    def canonical(self, name: str) -> str:
        """The interner's own copy of ``name`` if it holds one, else ``name``.
        Never inserts, so a decoder may pass names straight off the wire
        (dense-block names have no stored copy)."""
        uid = self._ids.get(name)
        return name if uid is None else self._names[uid - self._dense_count]

    def name_of(self, uid: int) -> str:
        """The name behind ``uid`` (trace/debug boundary only)."""
        if 0 <= uid < self._dense_count:
            return f"{self._dense_prefix}{uid}"
        index = uid - self._dense_count
        if 0 <= index < len(self._names):
            return self._names[index]
        raise KeyError(uid)

    def __len__(self) -> int:
        """Number of assigned ids (dense block included)."""
        return self._dense_count + len(self._names)

    def __repr__(self) -> str:
        return (
            f"<Interner dense={self._dense_count} extra={len(self._names)}>"
        )
