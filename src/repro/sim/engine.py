"""Deterministic discrete-event simulation engine.

This module provides the execution substrate for every simulated
experiment in the reproduction: a single-threaded event loop with
generator-based processes, in the style popularised by SimPy but
implemented from scratch so the repository has no runtime dependencies.

Concepts
--------
``Environment``
    Owns simulated time and the pending-event queue.  ``env.run()``
    executes events in time order; ties are broken by scheduling order,
    which makes every run fully deterministic.

``Event``
    A one-shot occurrence that processes can wait on.  An event is
    *triggered* (scheduled for processing) by ``succeed`` or ``fail``
    and *processed* once its callbacks have run.

``Process``
    Wraps a Python generator.  The generator yields events; when a
    yielded event is processed the generator is resumed with the event's
    value (or the stored exception is thrown into it).  A ``Process`` is
    itself an event that fires when the generator returns, so processes
    can wait on each other.  A process that raises fails its event; if
    no process waits on it and no callback observes it, ``run()`` raises
    the exception (an ``Interrupt`` from its owner counts as handled).

``Timeout``
    An event that fires after a fixed delay.

``AnyOf``
    The one composite event, used by the protocol code for its
    "response or timeout" races: it fires with whichever sub-event is
    processed first.

``Interrupt``
    Exception thrown into a process by ``Process.interrupt``.

Dead timers
-----------
Nearly every timer loses its race: the reply beats the request timeout.
A losing Timeout that nobody observes any more is marked *dead* by
``Timeout.cancel`` — called by protocol code, by ``Process.interrupt``
and by a triggered ``AnyOf``'s loser-detach — and is never
processed.  Dead entries are dropped from the queue two ways: popped and
skipped when their time comes, or all at once when they outnumber the
live entries (and number at least ``_COMPACT_FLOOR``): the queue is
rewritten to its live entries and re-heapified.  So the queue holds
O(live entries), not O(request rate x timeout), at an amortised O(1)
per death.  Neither path changes the ``(time, eid)`` order of live
entries, so the schedule is the same with or without them.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]

#: Fewest dead entries worth a compaction; below it, dead entries are
#: left to be popped and skipped, so small queues never compact.
_COMPACT_FLOOR = 64


class SimulationError(Exception):
    """Raised for misuse of the simulation API."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that can be waited upon.

    Life cycle: *pending* -> *triggered* (``succeed``/``fail`` called, the
    event sits in the queue) -> *processed* (callbacks have run).  A
    callback added once the event is processed runs at once.
    """

    __slots__ = (
        "env", "_value", "_ok", "_triggered", "_processed", "_waiter", "_callbacks"
    )

    #: Sentinel for "no value yet".
    _PENDING = object()

    #: Dead-entry flag read by the run loop on every pop.  Only
    #: :class:`Timeout` carries a per-instance slot for it; every other
    #: event reads this class attribute and is never elided.
    _cancelled = False

    def __init__(self, env: "Environment"):
        self.env = env
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._triggered = False
        self._processed = False
        # Fast path for the overwhelmingly common "one process waiting on
        # one event" case: the waiting Process is stored directly instead
        # of allocating a callback list and a bound method.  ``_callbacks``
        # stays ``None`` until a second waiter actually appears.
        self._waiter: Optional["Process"] = None
        self._callbacks: Optional[list[Callable[["Event"], None]]] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed`` or ``fail`` has been called."""
        return self._triggered

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is Event._PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` defers processing by simulated time; the default of 0
        processes the event at the current time, after already-queued
        events for this instant.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters have ``exception`` thrown."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env._schedule(self, delay)
        return self

    # -- waiting ----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (this keeps "wait on an already-fired event" safe).
        """
        if self._processed:
            callback(self)
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Undo one :meth:`add_callback`; a no-op once the callback has
        run or if it was never registered."""
        callbacks = self._callbacks
        if callbacks is not None:
            try:
                callbacks.remove(callback)
            except ValueError:
                pass
            if not callbacks:
                self._callbacks = None

    def _process(self) -> None:
        self._processed = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter._resume(self)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units after creation.

    A Timeout that lost a race (``any_of([reply, timer])``) can be
    *cancelled*: its queue entry is marked dead and is discarded instead
    of processed.  Cancellation never changes observable behaviour — a
    cancelled Timeout has no waiter and no callbacks by construction, so
    processing it would have been a no-op.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__: a Timeout is born triggered, so skip
        # the generic pending-state setup and the re-assignments that
        # ``super().__init__`` + ``succeed()`` would cost on this path —
        # Timeouts are the single most-allocated event type.
        self.env = env
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._waiter = None
        self._callbacks = None
        self._cancelled = False
        self.delay = delay
        env._schedule(self, delay)

    def cancel(self) -> bool:
        """Mark this Timeout dead so its queue entry is never processed.

        Legal only while *nothing* observes the timer: a Timeout with a
        parked waiter or registered callbacks must still fire, and a
        processed one already has.  Returns True when the entry is (now
        or already) elided, False when it cannot be.  A no-op returning
        False when the environment's ``_elide`` is false, so one
        attribute disables the whole elision machinery.

        The engine's one death path: ``Process.interrupt`` and
        ``AnyOf._detach_losers`` call it too, so each entry dies and
        is counted once, and any death may trigger a compaction.
        """
        if self._cancelled:
            return True
        env = self.env
        if (
            not env._elide
            or self._processed
            or self._waiter is not None
            or self._callbacks
        ):
            return False
        self._cancelled = True
        # Nothing can read a dead timer's value; do not keep it alive.
        self._value = None
        env._deaths += 1
        dead = env._deaths - env.dead_pops  # dead entries still queued
        if dead >= _COMPACT_FLOOR and dead + dead > len(env._queue):
            env._compact()
        return True


class _Bootstrap:
    """Minimal queue entry that starts a process at the current instant.

    Mimics just enough of a processed-successfully :class:`Event`
    (``_ok``/``_value``/``_process``) to resume the generator, without
    paying for a full ``Event`` allocation per process start.
    """

    __slots__ = ("_waiter",)

    _ok = True
    _value: Any = None
    _cancelled = False

    def __init__(self, process: "Process"):
        self._waiter = process

    def _process(self) -> None:
        waiter = self._waiter
        self._waiter = None
        waiter._resume(self)


class Process(Event):
    """A running process; fires when its generator returns.

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event succeeds, the generator is resumed with the event's
    value; when it fails, the exception is thrown into the generator.
    The generator's return value becomes the process's event value.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process target must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the process off at the current instant.
        env._schedule(_Bootstrap(self), 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a finished process raises ``SimulationError``; the
        caller is expected to check :attr:`is_alive` first when racing.
        """
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._triggered = True
        # Detach from whatever the process was waiting on so the stale
        # event does not resume it a second time.
        if self._target is not None:
            target = self._target
            if not target._processed:
                if target._waiter is self:
                    target._waiter = None
                else:
                    target.remove_callback(self._resume)
                # A Timeout nobody else observes is dead weight now.
                if type(target) is Timeout:
                    target.cancel()
            self._target = None
        interrupt_event.add_callback(self._resume)
        self.env._schedule(interrupt_event, 0.0)

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
            if not isinstance(next_event, Event):
                # Whatever the generator does with the error ends it:
                # a value it yields after catching is never waited on.
                self._generator.throw(SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, expected an Event"
                ))
                return
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # process died with an exception
            self._die(exc)
            return
        self._target = next_event
        # Fast path for the dominant wait shape — ``yield env.timeout(d)``
        # on a fresh Timeout: park this process in the event's single
        # waiter slot instead of materialising a callback list and a
        # bound method.  Guarded so that any event with existing waiters
        # (or one already processed) keeps exact callback ordering.
        if (
            type(next_event) is Timeout
            and not next_event._processed
            and next_event._waiter is None
            and next_event._callbacks is None
        ):
            next_event._waiter = self
        else:
            next_event.add_callback(self._resume)

    def _die(self, exc: BaseException) -> None:
        """:meth:`Event.fail`, but queued as a :class:`_Death`, so only a
        failing process pays for the unobserved-failure check."""
        self._ok = False
        self._value = exc
        self._triggered = True
        self.env._schedule(_Death(self), 0.0)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class _Death:
    """Queue entry that processes a failed :class:`Process`: its waiter
    and callbacks run as for any event, and if there were none, nobody
    observes the failure, so the exception is raised out of
    :meth:`Environment.run` instead of being dropped.  An
    :class:`Interrupt` is the owner stopping the process: handled."""

    __slots__ = ("_dead",)

    _cancelled = False

    def __init__(self, process: Process):
        self._dead = process

    def _process(self) -> None:
        process = self._dead
        observed = process._waiter is not None or process._callbacks
        process._process()
        if not observed and not isinstance(process._value, Interrupt):
            raise process._value


class AnyOf(Event):
    """Fires as soon as any sub-event is processed.

    The one composite event: every protocol race is ``any_of([reply,
    timer])``.  It succeeds with the winning sub-event itself, or fails
    with the exception of the sub-event that failed; an empty list
    succeeds at once with ``None``.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if event.env is not env:
                raise SimulationError("all condition events must share one environment")
        if not self._events:
            self.succeed(None)
            return
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._ok:
            self.succeed(event)
        else:
            self.fail(event._value)
        if self.env._elide:
            self._detach_losers()

    def _detach_losers(self) -> None:
        """Unhook ``_check`` from sub-events that lost the race.

        Called once, at trigger time.  The winning event is already
        processed (``_process`` marks itself before running callbacks),
        so only losers are touched: their ``_check`` registration is
        removed, and a losing *fresh* Timeout — no waiter, no remaining
        callbacks — additionally dies, so it is discarded instead of
        processed.  Pure elision: ``_check`` on a triggered condition was
        a no-op anyway, and a fresh Timeout's processing had nobody to
        notify.  So a caller never needs to cancel its own losing timer.
        """
        for event in self._events:
            if event._processed:
                continue
            callbacks = event._callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._check)
                except ValueError:
                    pass
            if type(event) is Timeout:
                event.cancel()


class Environment:
    """Simulated-time event loop.

    All scheduling is deterministic: events at the same timestamp run in
    the order they were scheduled.  Simulated time is a ``float`` in
    arbitrary units; the reproduction's protocol code treats the unit as
    one second.

    Dead-timer elision is always on: Timeouts that lost an ``any_of``
    race (or were explicitly ``cancel()``-ed while unobserved) are
    discarded without being processed.  Elision is behaviour-preserving
    — a dead timer has no waiter and no callbacks, so processing it was
    a no-op.  A dead entry is either popped and skipped when its time
    comes, or dropped early by a compaction once dead entries outnumber
    live ones; either way ``dead_pops`` counts it.  A drained ``run()``
    still ends at the time of the latest entry, dropped or not; only
    :meth:`peek` sees the difference, as it no longer reports dropped
    dead times.  The instance attribute ``_elide`` gates the mechanism;
    the equivalence property tests set it false on a test-local
    subclass to get their non-eliding reference.

    The pending-event queue is one ``heapq`` list of ``(time, eid,
    event)`` entries; ``eid`` increases with every insertion, so the
    ``(time, eid)`` total order is the schedule.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: The pending entries, a ``heapq`` list.  Read by tests and
        #: introspection; only ``_schedule``/``_compact``/``step``/``run``
        #: mutate it.
        self._queue: list[tuple[float, int, Any]] = []
        self._eid = itertools.count()
        self._active = False
        self._elide = True
        #: Number of dead (cancelled) entries discarded unprocessed so far.
        self.dead_pops = 0
        #: Entries ever marked dead; minus ``dead_pops``, the dead still queued.
        self._deaths = 0
        #: Latest entry time a compaction saw: where a drained run() ends.
        self._drain_time = self._now

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a process driving ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing with the first of ``events`` processed."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        # Queue entries are (time, eid, event) 3-tuples: same-timestamp
        # ties break on the monotonically increasing eid, i.e. strictly
        # by scheduling order.  (A priority field used to sit between
        # time and eid, but no caller ever varied it.)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._queue, (self._now + delay, next(self._eid), event))

    def _compact(self) -> None:
        """Drop every dead entry from the queue and re-heapify the rest.

        Rewritten in place: :meth:`run` holds an alias to the list.  The
        live entries keep their ``(time, eid)`` keys, so their order is
        unchanged.  Every entry here would have been popped by a drained
        ``run()`` (the live ones still will be), so the latest of their
        times is where such a run must leave the clock.
        """
        queue = self._queue
        self._drain_time = max(self._drain_time, max(queue)[0])
        live = [entry for entry in queue if not entry[2]._cancelled]
        self.dead_pops += len(queue) - len(live)
        queue[:] = live
        heapify(queue)

    def peek(self) -> float:
        """Time of the next queued entry, or ``inf`` if none.

        Dead entries a compaction dropped are not reported, so this may
        be later than the next time the queue would have popped.
        """
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Pop exactly one queue entry, advancing time to it.

        A dead (cancelled) entry is popped and counted but not
        processed — identical observable behaviour, since a dead timer
        resumes nobody.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _eid, event = heappop(self._queue)
        self._now = when
        if event._cancelled:
            self.dead_pops += 1
            return
        event._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        When ``until`` is given, time is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls observe contiguous time.  The exception of a process that
        fails with nothing observing it is raised from here.
        """
        if self._active:
            raise SimulationError("environment is already running")
        self._active = True
        try:
            if until is not None and until < self._now:
                raise SimulationError(
                    f"run(until={until}) is in the past (now={self._now})"
                )
            # Hot loop: ``step`` inlined with local bindings — per-event
            # method-call and attribute-lookup overhead dominates the
            # protocol benchmarks otherwise.
            queue = self._queue
            pop = heappop
            if until is None:
                while queue:
                    when, _eid, event = pop(queue)
                    self._now = when
                    if event._cancelled:
                        self.dead_pops += 1
                        continue
                    event._process()
                # Popping the entries compaction dropped would have left
                # the clock here.
                self._now = max(self._now, self._drain_time)
            else:
                while queue and queue[0][0] <= until:
                    when, _eid, event = pop(queue)
                    self._now = when
                    if event._cancelled:
                        self.dead_pops += 1
                        continue
                    event._process()
                self._now = max(self._now, until)
        finally:
            self._active = False

    def __repr__(self) -> str:
        return f"<Environment t={self._now} queued={len(self._queue)}>"
