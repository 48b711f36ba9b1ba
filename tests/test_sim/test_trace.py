"""Tests for the trace bus."""

from __future__ import annotations


from repro.sim.trace import TraceKind, Tracer


class TestTracer:
    def test_counts_without_subscribers(self, env):
        tracer = Tracer(env)
        tracer.publish("custom", "src")
        tracer.publish("custom", "src")
        assert tracer.counts().get("custom", 0) == 2
        assert tracer.counts().get("other", 0) == 0

    def test_subscription_by_kind(self, env):
        tracer = Tracer(env)
        seen = []
        tracer.subscribe(["a", "b"], seen.append)
        tracer.publish("a", "s1")
        tracer.publish("b", "s2")
        tracer.publish("c", "s3")
        assert [record.kind for record in seen] == ["a", "b"]

    def test_wildcard_subscription(self, env):
        tracer = Tracer(env)
        seen = []
        tracer.subscribe(None, seen.append)
        tracer.publish("x", "s")
        tracer.publish("y", "s")
        assert len(seen) == 2

    def test_records_carry_time_and_data(self, env):
        tracer = Tracer(env)
        seen = []
        tracer.subscribe(["evt"], seen.append)
        env.run(until=12.5)
        tracer.publish("evt", "node1", detail=7)
        record = seen[0]
        assert record.time == 12.5
        assert record.source == "node1"
        assert record.data == {"detail": 7}

    def test_log_retention(self, env):
        tracer = Tracer(env, keep_log=True)
        tracer.publish("a", "s")
        tracer.publish("b", "s")
        assert [r.kind for r in tracer.log] == ["a", "b"]

    def test_counts_snapshot(self, env):
        tracer = Tracer(env)
        tracer.publish("a", "s")
        counts = tracer.counts()
        assert counts == {"a": 1}
        counts["a"] = 99  # mutation must not leak back
        assert tracer.counts().get("a", 0) == 1

    def test_kind_constants_are_unique(self):
        values = [
            getattr(TraceKind, name)
            for name in dir(TraceKind)
            if not name.startswith("_")
        ]
        assert len(values) == len(set(values))
