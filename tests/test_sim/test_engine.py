"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)

from .test_elision_property import NonElidingEnvironment


class TestEnvironment:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_empty_queue_is_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_run_until_advances_time_even_without_events(self, env):
        env.run(until=50.0)
        assert env.now == 50.0

    def test_run_until_past_raises(self, env):
        env.run(until=10.0)
        with pytest.raises(SimulationError):
            env.run(until=5.0)

    def test_peek_empty_is_infinite(self, env):
        assert env.peek() == float("inf")

    def test_step_without_events_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_fires_after_delay(self, env):
        timeout = env.timeout(5.0)
        env.run()
        assert timeout.processed
        assert env.now == 5.0

    def test_carries_value(self, env):
        timeout = env.timeout(1.0, value="done")
        env.run()
        assert timeout.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_fires_at_current_time(self, env):
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed and env.now == 0.0


class TestEvent:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        event.succeed(42)
        env.run()
        assert event.ok is True and event.value == 42

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processing_runs_immediately(self, env):
        event = env.event()
        event.succeed("x")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_registration_order(self, env):
        event = env.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        env.run()
        assert order == [1, 2]


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc():
            yield env.timeout(3)
            return "finished"

        process = env.process(proc())
        env.run()
        assert process.value == "finished"
        assert env.now == 3

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(2)
            yield env.timeout(3)
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 5

    def test_process_waits_on_process(self, env):
        def inner():
            yield env.timeout(4)
            return "inner-result"

        def outer():
            result = yield env.process(inner())
            return f"got {result}"

        process = env.process(outer())
        env.run()
        assert process.value == "got inner-result"

    def test_exception_propagates_to_event(self, env):
        def proc():
            yield env.timeout(1)
            raise ValueError("boom")

        process = env.process(proc())
        env.run()
        assert process.ok is False
        assert isinstance(process.value, ValueError)

    def test_failed_event_throws_into_waiter(self, env):
        event = env.event()

        def proc():
            try:
                yield event
            except RuntimeError as exc:
                return f"caught {exc}"

        process = env.process(proc())
        event.fail(RuntimeError("bad"))
        env.run()
        assert process.value == "caught bad"

    def test_yielding_non_event_raises_into_generator(self, env):
        def proc():
            try:
                yield 42  # type: ignore[misc]
            except SimulationError:
                return "rejected"

        process = env.process(proc())
        env.run()
        assert process.value == "rejected"

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(10)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_immediate_return_process(self, env):
        def proc():
            return "now"
            yield  # pragma: no cover

        process = env.process(proc())
        env.run()
        assert process.value == "now"

    def test_interrupt_wakes_sleeping_process(self, env):
        def sleeper():
            try:
                yield env.timeout(100)
                return "slept"
            except Interrupt as interrupt:
                return f"interrupted: {interrupt.cause}"

        process = env.process(sleeper())

        def interrupter():
            yield env.timeout(5)
            process.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert process.value == "interrupted: wake up"
        # The interrupt fired at t=5; the stale timeout still drains the
        # queue but must not resume the process again.
        assert env.now == 100

    def test_interrupting_finished_process_raises(self, env):
        def proc():
            return None
            yield  # pragma: no cover

        process = env.process(proc())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        slow = env.timeout(10, value="slow")
        fast = env.timeout(2, value="fast")

        def proc():
            result = yield env.any_of([slow, fast])
            return result

        process = env.process(proc())
        env.run()
        assert fast in process.value
        assert slow not in process.value
        assert process.value[fast] == "fast"

    def test_all_of_waits_for_all(self, env):
        a = env.timeout(3, value="a")
        b = env.timeout(7, value="b")

        def proc():
            result = yield env.all_of([a, b])
            return result

        process = env.process(proc())
        env.run()
        assert process.value == {a: "a", b: "b"}

    def test_empty_condition_fires_immediately(self, env):
        def proc():
            result = yield env.all_of([])
            return result

        process = env.process(proc())
        env.run()
        assert process.value == {}
        assert env.now == 0.0

    def test_operator_or(self, env):
        fast = env.timeout(1, value=1)
        slow = env.timeout(5, value=2)

        def proc():
            yield fast | slow
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 1

    def test_operator_and(self, env):
        a = env.timeout(1)
        b = env.timeout(5)

        def proc():
            yield a & b
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 5

    def test_condition_failure_propagates(self, env):
        bad = env.event()

        def proc():
            try:
                yield env.any_of([bad, env.timeout(10)])
            except ValueError:
                return "failed"

        process = env.process(proc())
        bad.fail(ValueError("no"))
        env.run()
        assert process.value == "failed"


class TestDeterminism:
    def test_same_time_events_run_in_schedule_order(self, env):
        order = []
        for index in range(5):
            event = env.timeout(1.0)
            event.add_callback(lambda _e, i=index: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_leaves_future_events_pending(self, env):
        later = env.timeout(10)
        env.run(until=5)
        assert env.now == 5
        assert not later.processed
        env.run()
        assert later.processed
        assert env.now == 10

    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            log = []

            def worker(name, delay):
                while env.now < 20:
                    yield env.timeout(delay)
                    log.append((env.now, name))

            env.process(worker("a", 3))
            env.process(worker("b", 5))
            env.run(until=20)
            return log

        assert build_and_run() == build_and_run()


class TestFastPaths:
    """The allocation-avoiding paths must be behaviourally invisible."""

    def test_single_timeout_wait_uses_waiter_slot(self, env):
        def sleeper():
            yield env.timeout(5)
            return "ok"

        process = env.process(sleeper())
        env.run(until=1)  # past the bootstrap; the process waits on the timeout
        target = process._target
        assert isinstance(target, Timeout)
        assert target._waiter is process and target._callbacks is None
        env.run()
        assert process.value == "ok"

    def test_timeout_with_prior_callback_keeps_callback_order(self, env):
        order = []
        timeout = env.timeout(3)
        timeout.add_callback(lambda _e: order.append("callback"))

        def waiter():
            yield timeout
            order.append("process")

        env.process(waiter())
        env.run()
        assert order == ["callback", "process"]

    def test_waiter_resumes_before_later_callbacks(self, env):
        # The process yielded first, so it registered first and must
        # still resume first even though it sits in the waiter slot.
        order = []
        timeout = env.timeout(3)

        def waiter():
            yield timeout
            order.append("process")

        env.process(waiter())
        env.run(until=1)
        timeout.add_callback(lambda _e: order.append("callback"))
        env.run()
        assert order == ["process", "callback"]

    def test_condition_value_behaves_like_dict(self, env):
        fast = env.timeout(1, value="fast")
        slow = env.timeout(9, value="slow")

        def proc():
            result = yield env.any_of([fast, slow])
            return result

        process = env.process(proc())
        env.run()
        value = process.value
        assert value == {fast: "fast"}
        assert fast in value and slow not in value
        assert list(value) == [fast]
        assert len(value) == 1
        assert value.get(slow, "absent") == "absent"
        assert dict(value) == {fast: "fast"}

    def test_condition_value_snapshot_taken_at_trigger(self):
        # Sub-events succeeding after the condition fired must not leak
        # into a value that is only inspected later.  Elision is disabled
        # so the losing timeout still fires and could leak if the
        # snapshot were taken lazily.
        env = NonElidingEnvironment()
        fast = env.timeout(1, value="fast")
        slow = env.timeout(9, value="slow")
        condition = env.any_of([fast, slow])
        env.run()  # both timeouts processed; condition fired at t=1
        assert slow.processed
        assert condition.value == {fast: "fast"}

    def test_bootstrap_start_order_matches_schedule_order(self, env):
        order = []

        def worker(tag):
            order.append(tag)
            yield env.timeout(0)

        env.process(worker("first"))
        event = env.timeout(0)
        event.add_callback(lambda _e: order.append("timeout"))
        env.process(worker("second"))
        env.run()
        assert order == ["first", "timeout", "second"]


class TestEngineDeepEdges:
    def test_interrupt_process_waiting_on_condition(self, env):
        from repro.sim.engine import AnyOf

        def waiter():
            try:
                yield env.any_of([env.timeout(50), env.timeout(60)])
                return "finished"
            except Interrupt:
                return "interrupted"

        process = env.process(waiter())

        def interrupter():
            yield env.timeout(5)
            process.interrupt()

        env.process(interrupter())
        env.run()
        assert process.value == "interrupted"

    def test_yield_already_processed_event_resumes_immediately(self, env):
        fired = env.timeout(1, value="early")
        env.run(until=2)

        def late_waiter():
            value = yield fired
            return (env.now, value)

        process = env.process(late_waiter())
        env.run(until=3)
        assert process.value == (2, "early")

    def test_nested_reentrant_run_rejected(self, env):
        def naughty():
            yield env.timeout(1)
            env.run(until=10)  # illegal: already inside run()

        process = env.process(naughty())
        env.run()
        assert process.ok is False
        assert isinstance(process.value, SimulationError)

    def test_failed_process_value_holds_exception(self, env):
        def boom():
            yield env.timeout(1)
            raise KeyError("oops")

        process = env.process(boom())
        env.run()
        assert isinstance(process.value, KeyError)
        # Waiting on a failed process throws into the waiter.
        def watcher():
            try:
                yield process
            except KeyError:
                return "saw it"

        # The failed process is already processed; waiting still works.
        watcher_process = env.process(watcher())
        env.run()
        assert watcher_process.value == "saw it"

    def test_process_name_defaults(self, env):
        def my_generator():
            yield env.timeout(1)

        process = env.process(my_generator())
        assert "my_generator" in repr(process) or "process" in repr(process)


class TestTimerElision:
    """Dead-timer elision: cancelled Timeouts are popped, never processed."""

    def test_cancel_fresh_timeout_skips_processing(self, env):
        timer = env.timeout(5.0)
        assert timer.cancel() is True
        env.run()
        assert not timer.processed
        assert env.dead_pops == 1
        assert env.now == 5.0  # a dead pop still advances the clock

    def test_cancel_is_idempotent(self, env):
        timer = env.timeout(1.0)
        assert timer.cancel() is True
        assert timer.cancel() is True
        env.run()
        assert env.dead_pops == 1

    def test_cancel_refused_with_parked_waiter(self, env):
        def sleeper():
            yield env.timeout(2.0)
            return "woke"

        process = env.process(sleeper())
        env.run(until=1.0)  # bootstrap ran; the process is parked on the timer
        timer = process._target
        if isinstance(timer, Timeout):
            assert timer.cancel() is False
        env.run()
        assert process.value == "woke"

    def test_cancel_refused_with_callbacks(self, env):
        timer = env.timeout(1.0)
        timer.add_callback(lambda event: None)
        assert timer.cancel() is False
        env.run()
        assert timer.processed and env.dead_pops == 0

    def test_cancel_refused_after_processed(self, env):
        timer = env.timeout(1.0)
        env.run()
        assert timer.processed
        assert timer.cancel() is False

    def test_cancel_refused_when_elision_disabled(self):
        env = NonElidingEnvironment()
        timer = env.timeout(1.0)
        assert timer.cancel() is False
        env.run()
        assert timer.processed and env.dead_pops == 0

    def test_any_of_detaches_and_elides_losing_timeout(self, env):
        def racer():
            reply = env.timeout(0.5, value="reply")
            timer = env.timeout(10.0)
            result = yield env.any_of([reply, timer])
            return dict(result)

        process = env.process(racer())
        env.run()
        assert list(process.value.values()) == ["reply"]
        assert env.dead_pops == 1
        assert env.now == 10.0  # the dead entry still drained the heap

    def test_losing_event_with_other_observers_still_fires(self, env):
        # The loser is a timer someone else also waits on: detaching the
        # condition's callback must not cancel it.
        shared = env.timeout(3.0, value="shared")

        def racer():
            reply = env.timeout(1.0, value="fast")
            yield env.any_of([reply, shared])

        def bystander():
            value = yield shared
            return value

        env.process(racer())
        watcher = env.process(bystander())
        env.run()
        assert watcher.value == "shared"
        assert shared.processed

    def test_interrupt_cancels_fresh_sleep_timer(self, env):
        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                return "interrupted"

        def interrupter(process):
            yield env.timeout(1.0)
            process.interrupt("wake up")

        process = env.process(sleeper())
        env.process(interrupter(process))
        env.run()
        assert process.value == "interrupted"
        assert env.dead_pops == 1
        assert env.now == 100.0

    def test_heap_entries_are_time_eid_event_triples(self, env):
        env.timeout(1.0)
        env.timeout(2.0)
        assert all(len(entry) == 3 for entry in env._queue)
        times = [entry[0] for entry in env._queue]
        eids = [entry[1] for entry in env._queue]
        assert times == [1.0, 2.0]
        assert eids[0] < eids[1]  # scheduling order is the tie-break


class TestEngineEdgeCases:
    """Queue shapes that stress ordering around the run loop: same-tick
    inserts during a drain, far-future timers, dead entries, and
    ``run(until=...)`` horizons on an empty or partly drained queue."""

    def test_zero_delay_self_reschedule(self, env):
        fired = []

        def spinner():
            for step in range(5):
                yield env.timeout(0.0)
                fired.append((env.now, step))
            yield env.timeout(1.0)
            fired.append((env.now, "later"))

        env.process(spinner())
        env.run()
        assert fired == [(0.0, 0), (0.0, 1), (0.0, 2), (0.0, 3), (0.0, 4),
                         (1.0, "later")]

    def test_far_future_timer(self, env):
        fired = []

        def program():
            yield env.timeout(0.5)
            fired.append(env.now)
            yield env.timeout(1e7)
            fired.append(env.now)
            yield env.timeout(0.25)
            fired.append(env.now)

        env.process(program())
        env.run()
        assert fired == [0.5, 1e7 + 0.5, 1e7 + 0.75]

    def test_cancel_then_reinsert_same_event(self, env):
        log = []
        # Cancelling a timer and scheduling a replacement at the same
        # instant must not disturb ordering around the dead entry.
        loser = env.timeout(2.0)
        loser.cancel()
        replacement = env.timeout(2.0, value="replacement")
        replacement.add_callback(lambda event: log.append((env.now, event.value)))
        env.timeout(3.0, value="after").add_callback(
            lambda event: log.append((env.now, event.value))
        )
        env.run()
        assert log == [(2.0, "replacement"), (3.0, "after")]
        assert env.dead_pops == 1
        assert env.now == 3.0

    def test_empty_queue_run_until_terminates(self, env):
        env.run(until=12.5)
        assert env.now == 12.5
        # And again: back-to-back horizons stay contiguous with nothing
        # queued.
        env.run(until=20.0)
        assert env.now == 20.0

    def test_run_until_then_drain(self, env):
        fired = []
        for delay in (1.0, 4.0, 9.0):
            env.timeout(delay, value=delay).add_callback(
                lambda event: fired.append(event.value)
            )
        env.run(until=5.0)
        assert fired == [1.0, 4.0]
        assert env.now == 5.0
        env.run()
        assert fired == [1.0, 4.0, 9.0]
        assert env.now == 9.0

    def test_dead_pops_counted(self, env):
        for _ in range(10):
            env.timeout(1.0).cancel()
        env.timeout(2.0)
        env.run()
        assert env.dead_pops == 10
        assert env.now == 2.0
