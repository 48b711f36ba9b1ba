"""Unit tests for the span recorder and the generator wrapper.

Run with ``PYTHONPATH=src python -m pytest bench_e2e/tests`` (not part of
tier-1: ``testpaths`` stays ``tests``).
"""

import json

import pytest

from bench_e2e.trace import WALL_SUFFIX, SpanRecorder


class FakeClock:
    """A clock the test advances by hand, in nanoseconds."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def rec(clock):
    return SpanRecorder(clock=clock)


def test_nested_self_time_is_duration_minus_children(rec, clock):
    outer = rec.enter("a:outer")
    clock.advance(10)
    inner = rec.enter("b:inner")
    clock.advance(30)
    leaf = rec.enter("c:leaf")
    clock.advance(5)
    rec.exit(leaf)
    rec.exit(inner)
    clock.advance(20)
    second = rec.enter("b:inner")
    clock.advance(7)
    rec.exit(second)
    rec.exit(outer)

    assert rec.stats["a:outer"].busy_ns == 72
    assert rec.stats["a:outer"].self_ns == 72 - 35 - 7
    assert rec.stats["b:inner"].busy_ns == 42
    assert rec.stats["b:inner"].self_ns == 37  # the leaf's 5 ns are not b's
    assert rec.stats["b:inner"].count == 2
    assert rec.stats["c:leaf"].self_ns == 5
    # Self times of a tree add up to the root's duration.
    assert rec.total_self_ns() == 72
    assert rec.layer_self_ns("b") == 37


def test_spans_record_parent_and_inherit_the_operation(rec, clock):
    op = rec.new_op()
    outer = rec.enter("a:outer", op)
    inner = rec.enter("b:inner")
    clock.advance(1)
    rec.exit(inner)
    rec.exit(outer)
    lone = rec.enter("c:lone")
    rec.exit(lone)

    assert rec.spans[0] == ("a:outer", 0, 1, -1, op)
    assert rec.spans[1] == ("b:inner", 0, 1, 0, op)
    assert rec.spans[2] == ("c:lone", 1, 1, -1, None)


def test_out_of_order_exit_is_an_error(rec):
    outer = rec.enter("a:outer")
    rec.enter("b:inner")
    with pytest.raises(RuntimeError):
        rec.exit(outer)


def test_span_list_is_capped_but_totals_are_not(clock):
    rec = SpanRecorder(max_spans=2, clock=clock)
    for _ in range(5):
        frame = rec.enter("a:f")
        clock.advance(3)
        rec.exit(frame)
    assert len(rec.spans) == 2
    assert rec.dropped == 3
    assert rec.stats["a:f"].count == 5
    assert rec.stats["a:f"].busy_ns == 15


class Worker:
    def __init__(self):
        self.calls = []

    def add(self, a, b=0):
        self.calls.append((a, b))
        return a + b

    def boom(self):
        raise ValueError("boom")

    def steps(self, n, clock):
        """Yields n times; resumed with a value each time; returns their sum."""
        total = 0
        for i in range(n):
            clock.advance(10)  # busy
            got = yield i
            total += got
        clock.advance(10)
        return total


def drive_with_gaps(generator, clock, gap):
    """Resume ``generator`` to completion, idling ``gap`` ns between resumes."""
    yielded = []
    value = None
    try:
        while True:
            yielded.append(generator.send(value))
            clock.advance(gap)  # suspended: someone else's time
            value = 100
    except StopIteration as stop:
        return yielded, stop.value


def test_generator_resumed_n_times_reports_n_slices(rec, clock):
    rec.wrap_generator(Worker, "steps", "w:steps")
    worker = Worker()
    yielded, result = drive_with_gaps(worker.steps(3, clock), clock, gap=1000)

    assert yielded == [0, 1, 2]
    assert result == 300
    stat = rec.stats["w:steps"]
    assert stat.count == 4          # 3 yields + the final resume that returns
    assert stat.busy_ns == 40       # 10 ns per slice; the 1000 ns gaps are not busy
    assert stat.ops == 1
    assert stat.walls_ns == [40 + 3 * 1000]
    walls = [s for s in rec.spans if s[0] == "w:steps" + WALL_SUFFIX]
    assert walls == [("w:steps" + WALL_SUFFIX, 0, 3040, -1, None)]


def test_calls_inside_a_slice_are_its_children(rec, clock):
    class Inner:
        def work(self):
            clock.advance(4)

    inner = Inner()

    class Outer:
        def run(self):
            inner.work()
            clock.advance(6)
            yield
            inner.work()

    rec.wrap_call(Inner, "work", "i:work")
    rec.wrap_generator(Outer, "run", "o:run")
    list(Outer().run())
    assert rec.stats["o:run"].busy_ns == 14
    assert rec.stats["o:run"].self_ns == 6
    assert rec.stats["i:work"].self_ns == 8


def test_exceptions_pass_through_generator_wrapper_both_ways(rec, clock):
    class Flaky:
        def run(self):
            try:
                yield "ready"
            except KeyError:
                yield "caught"
            raise ValueError("done")

    rec.wrap_generator(Flaky, "run", "f:run")
    generator = Flaky().run()
    assert next(generator) == "ready"
    assert generator.throw(KeyError("x")) == "caught"
    with pytest.raises(ValueError):
        next(generator)
    assert rec.stats["f:run"].count == 3
    assert rec.stats["f:run"].ops == 1


def test_closing_a_wrapped_generator_closes_the_inner_one(rec):
    closed = []

    class Held:
        def run(self):
            try:
                yield 1
            finally:
                closed.append(True)

    rec.wrap_generator(Held, "run", "h:run")
    generator = Held().run()
    next(generator)
    generator.close()
    assert closed == [True]


def test_yield_from_delegation_sees_the_same_values(rec, clock):
    rec.wrap_generator(Worker, "steps", "w:steps")
    worker = Worker()

    def caller():
        return (yield from worker.steps(2, clock))

    yielded, result = drive_with_gaps(caller(), clock, gap=0)
    assert (yielded, result) == ([0, 1], 200)


@pytest.mark.parametrize("on_class", [True, False])
def test_wrap_and_unwrap_leave_behaviour_identical(rec, clock, on_class):
    worker = Worker()
    owner = Worker if on_class else worker
    original = Worker.__dict__["add"]
    assert worker.add(1, b=2) == 3
    rec.wrap_call(owner, "add", "w:add")
    rec.wrap_call(owner, "boom", "w:boom")
    assert worker.add(1, b=2) == 3            # same result while wrapped
    with pytest.raises(ValueError):
        worker.boom()
    assert rec.stats["w:add"].count == 1
    assert rec.stats["w:boom"].count == 1     # the span closed despite the raise
    rec.unwrap_all()
    assert worker.add(1, b=2) == 3
    assert Worker.__dict__["add"] is original
    assert "add" not in vars(worker) and "boom" not in vars(worker)
    assert rec.stats["w:add"].count == 1      # no longer recorded
    assert worker.calls == [(1, 2)] * 3


def test_unwrap_restores_an_inherited_method_by_deleting_the_override(rec):
    class Base:
        def f(self):
            return "base"

    class Derived(Base):
        pass

    rec.wrap_call(Derived, "f", "d:f")
    assert "f" in vars(Derived) and Derived().f() == "base"
    rec.unwrap_all()
    assert "f" not in vars(Derived) and Derived().f() == "base"


def test_observe_and_op_from_hooks(rec):
    seen = []
    rec.wrap_call(Worker, "add", "w:add",
                  op_from=lambda self, a, b=0: 40 + a,
                  observe=lambda result, self, a, b=0: seen.append(result))
    Worker().add(2, 5)
    assert seen == [7]
    assert rec.spans[0][4] == 42


def test_write_round_trips(rec, clock, tmp_path):
    frame = rec.enter("a:f", rec.new_op())
    clock.advance(9)
    rec.exit(frame)
    path = tmp_path / "trace.json"
    rec.write(str(path), {"workload": "unit"})
    document = json.loads(path.read_text())
    assert document["meta"] == {"workload": "unit"}
    assert document["names"] == ["a:f"]
    assert document["spans"] == [[0, 0, 0, 9, -1, 1]]
    assert document["layers"]["a:f"] == {"count": 1, "busy_ns": 9, "self_ns": 9, "ops": 0}
