"""Order-independent merging of parallel results.

Workers finish in whatever order the scheduler pleases; each returns
``(index, value)`` pairs tagged with the submission index of the unit
of work.  :func:`merge_ordered` restores submission order and verifies
completeness, which is what makes parallel output bit-identical to the
sequential loop it replaced.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

__all__ = ["MergeError", "merge_ordered"]


class MergeError(Exception):
    """A parallel run produced an incomplete or inconsistent result set."""


def merge_ordered(
    indexed: Iterable[Tuple[int, Any]], expected: Optional[int] = None
) -> List[Any]:
    """Sort ``(index, value)`` pairs by index and return the values.

    Raises :class:`MergeError` on duplicate indexes, or (when
    ``expected`` is given) on missing ones — a lost chunk must be loud,
    never a silently shorter result list.
    """
    pairs = sorted(indexed, key=lambda pair: pair[0])
    indexes = [index for index, _value in pairs]
    if len(set(indexes)) != len(indexes):
        duplicates = sorted({i for i in indexes if indexes.count(i) > 1})
        raise MergeError(f"duplicate result indexes: {duplicates}")
    if expected is not None:
        missing = sorted(set(range(expected)) - set(indexes))
        extra = sorted(set(indexes) - set(range(expected)))
        if missing or extra:
            raise MergeError(
                f"expected indexes 0..{expected - 1}; "
                f"missing {missing or 'none'}, unexpected {extra or 'none'}"
            )
    return [value for _index, value in pairs]
