"""Span recorder for the traced benchmark run.

The benchmark wraps the public entry points of each layer *from its own
files* (spans inside ``src/`` are a later change) and records one span
per call: ``(name, start_ns, end_ns, parent, op_id)``.  Spans nest on a
single stack — the whole benchmark is one thread, and no span is held
across an ``await`` — so a layer's **self time** is its span's duration
minus the part covered by its child spans, accumulated as spans close.

Generator entry points (``VerificationPipeline.check``,
``QueryPlanner.run_round``, ``AdminClient.add`` ...) are suspended while
they wait for the network, so one wall-clock span would charge them for
time the processor spent elsewhere.  :meth:`SpanRecorder.wrap_generator`
instead records one span per *resume slice* (busy time, with children
and self time like any other span) plus the wall span from the first
resume to the return.

Everything is held in memory; :meth:`SpanRecorder.write` dumps it when
the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerStat", "SpanRecorder", "WALL_SUFFIX"]

#: Suffix of the wall-clock span a wrapped generator records on return.
WALL_SUFFIX = "#wall"

_MISSING = object()


class LayerStat:
    """Running totals for one span name."""

    __slots__ = ("count", "busy_ns", "self_ns", "ops", "walls_ns")

    def __init__(self) -> None:
        self.count = 0      # spans closed (calls, or resume slices)
        self.busy_ns = 0    # sum of span durations
        self.self_ns = 0    # busy minus time covered by child spans
        self.ops = 0        # generators run to completion
        self.walls_ns: List[int] = []  # first resume -> return, per generator

    def as_dict(self) -> Dict[str, int]:
        return {
            "count": self.count,
            "busy_ns": self.busy_ns,
            "self_ns": self.self_ns,
            "ops": self.ops,
        }


class SpanRecorder:
    """Records nested spans and per-name self time.

    ``max_spans`` bounds the span list (a sim run closes millions of
    spans); totals in :attr:`stats` always cover every span, and
    :attr:`dropped` says how many are missing from the list.
    """

    def __init__(
        self, max_spans: int = 200_000, clock: Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.spans: List[Optional[Tuple[str, int, int, int, Optional[int]]]] = []
        self.stats: Dict[str, LayerStat] = {}
        self.dropped = 0
        self.max_spans = max_spans
        self._clock = clock
        # Open frames: [name, start_ns, child_ns, span_index, op_id].
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._ops = 0

    # -- operations ---------------------------------------------------------
    def new_op(self) -> int:
        """A fresh operation id; spans of one request share one."""
        self._ops += 1
        return self._ops

    def current_op(self) -> Optional[int]:
        return self._stack[-1][4] if self._stack else None

    # -- spans ----------------------------------------------------------------
    def stat(self, name: str) -> LayerStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStat()
        return stat

    def enter(self, name: str, op: Optional[int] = None) -> list:
        """Open a span; it inherits the enclosing span's op unless given one."""
        stack = self._stack
        if op is None and stack:
            op = stack[-1][4]
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = -1
            self.dropped += 1
        frame = [name, self._clock(), 0, index, op]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> int:
        """Close the innermost span (which must be ``frame``); returns end_ns."""
        end = self._clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, child_ns, index, op = frame
        duration = end - start
        stat = self.stat(name)
        stat.count += 1
        stat.busy_ns += duration
        stat.self_ns += duration - child_ns
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][3]
        if index >= 0:
            self.spans[index] = (name, start, end, parent, op)
        return end

    # -- wrapping ---------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Install ``replacement`` as ``owner.attr``; undone by :meth:`unwrap_all`.

        ``owner`` is an instance or a class.  Classes with ``__slots__``
        cannot take instance attributes, so their methods are wrapped on
        the class.
        """
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, saved)

    def wrap_call(
        self,
        owner: Any,
        attr: str,
        name: str,
        op_from: Optional[Callable[..., Optional[int]]] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record one span per call of the plain callable ``owner.attr``.

        ``op_from(*args)`` may name the operation a top-level call belongs
        to; ``observe(result, *args)`` sees each result inside the span.
        """
        original = getattr(owner, attr)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name, op_from(*args) if op_from is not None else None)
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(result, *args)
                return result
            finally:
                exit_(frame)

        self.patch(owner, attr, traced)

    def wrap_generator(
        self,
        owner: Any,
        attr: str,
        name: str,
        op_from: Optional[Callable[..., Optional[int]]] = None,
    ) -> None:
        """Record resume slices and the wall span of a generator entry point."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            op = op_from(*args) if op_from is not None else None
            if op is None:
                op = self.current_op()
            return self.drive(original(*args, **kwargs), name, op)

        self.patch(owner, attr, traced)

    def drive(self, generator: Any, name: str, op: Optional[int] = None) -> Any:
        """Run ``generator`` transparently, one span per resume slice."""
        first: Optional[int] = None
        end = 0
        value: Any = None
        thrown: Optional[BaseException] = None
        try:
            while True:
                frame = self.enter(name, op)
                if first is None:
                    first = frame[1]
                try:
                    if thrown is not None:
                        pending, thrown = thrown, None
                        yielded = generator.throw(pending)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = self.exit(frame)
                try:
                    value = yield yielded
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # re-raised inside the generator
                    value, thrown = None, exc
        finally:
            if first is not None:
                stat = self.stat(name)
                stat.ops += 1
                stat.walls_ns.append(end - first)
                if len(self.spans) < self.max_spans:
                    self.spans.append((name + WALL_SUFFIX, first, end, -1, op))
                else:
                    self.dropped += 1

    # -- totals -------------------------------------------------------------------
    def layer_self_ns(self, layer: str) -> int:
        """Self time of every span named ``<layer>:<function>``."""
        prefix = layer + ":"
        return sum(s.self_ns for n, s in self.stats.items() if n.startswith(prefix))

    def total_self_ns(self) -> int:
        return sum(s.self_ns for s in self.stats.values())

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Dump spans (times relative to the first) and per-name totals."""
        names = sorted(self.stats)
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[1] for span in self.spans if span is not None), default=0)
        rows: List[Optional[list]] = []
        for span in self.spans:
            if span is None:  # still open; keeps ``parent`` indices aligned
                rows.append(None)
                continue
            name, start, end, parent, op = span
            wall = name.endswith(WALL_SUFFIX)
            base = name[: -len(WALL_SUFFIX)] if wall else name
            rows.append([index[base], int(wall), start - origin, end - origin, parent, op])
        document = {
            "meta": meta,
            "columns": ["name", "is_wall", "start_ns", "end_ns", "parent", "op_id"],
            "names": names,
            "dropped_spans": self.dropped,
            "layers": {name: self.stats[name].as_dict() for name in names},
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
