"""The synchronous Figure-3 hit path of the wrapper.

A cached grant is decided inside message delivery: the wrapper's
``_admit`` calls ``VerificationPipeline.probe`` and answers on the spot,
and only a miss spawns a ``_serve`` process.  Two things are pinned here:

* **structure** — hits create no :class:`Process` and schedule nothing
  on the engine at the host (no timing involved);
* **equivalence** — a scripted hit / miss / expired / denied /
  deny-cached / unknown-application / application-raises sequence
  produces the trace records, host stats, responses and client results
  recorded from the generator-only implementation
  (``fixtures/hit_path_script.json``; ``python
  tests/test_core/test_hit_path.py`` rewrites it from whatever
  ``repro`` is on the path).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.client import UserClient
from repro.core.messages import AppRequest, AppResponse
from repro.core.policy import AccessPolicy, QueryStrategy
from repro.core.rights import Right
from repro.core.system import AccessControlSystem
from repro.core.wrapper import Application
from repro.sim import engine
from repro.sim.network import FixedLatency

APP = "echo"
FIXTURE = Path(__file__).parent / "fixtures" / "hit_path_script.json"


class EchoApp(Application):
    name = APP

    def handle_request(self, user, payload):
        if payload == "boom":
            raise RuntimeError("kaboom")
        return f"echo:{payload}"


def build(**policy):
    # PARALLEL: the script was recorded with misses fanning out to all M.
    settings = dict(
        check_quorum=2, expiry_bound=10.0, max_attempts=2, query_timeout=1.0,
        query_strategy=QueryStrategy.PARALLEL,
    )
    settings.update(policy)
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        applications=(APP, "ghost"),
        policy=AccessPolicy(**settings),
        latency=FixedLatency(0.05),
        seed=11,
        keep_trace_log=True,
    )
    host = system.hosts[0]
    host.deploy(EchoApp())
    return system, host


# -- structure -------------------------------------------------------------------


def _count_processes(monkeypatch):
    names = []
    original = engine.Process.__init__

    def counting(self, env, generator, name=None):
        names.append(name)
        original(self, env, generator, name=name)

    monkeypatch.setattr(engine.Process, "__init__", counting)
    return names


def _eid(env) -> int:
    """The next event id; reading it consumes one."""
    return next(env._eid)


class TestHitsStayOutOfTheEngine:
    def test_cached_requests_create_no_process_and_schedule_nothing(self, monkeypatch):
        system, host = build(expiry_bound=1000.0)
        system.seed_grant(APP, "alice")
        warm = host.request_access(APP, "alice")
        system.run(until=5)
        assert warm.value.reason == "verified"

        # Replies would schedule network deliveries; collecting them
        # instead leaves the host as the only possible scheduler.
        replies = []
        monkeypatch.setattr(host, "send", lambda dst, message: replies.append((dst, message)))
        spawned = _count_processes(monkeypatch)
        queued = len(system.env._queue)
        before = _eid(system.env)
        for request_id in range(1000):
            host.handle_message(
                "c0", AppRequest(request_id=request_id, application=APP, user="alice", payload=request_id)
            )
        assert _eid(system.env) == before + 1
        assert len(system.env._queue) == queued
        assert spawned == []
        assert [reply.request_id for _dst, reply in replies] == list(range(1000))
        assert all(reply.allowed and reply.reason == "cache" for _dst, reply in replies)
        assert replies[7] == ("c0", AppResponse(7, APP, True, "echo:7", "cache"))
        assert host.stats["checks"] == 1001 and host.stats["allowed"] == 1001

    def test_a_miss_spawns_exactly_one_serve_process(self, monkeypatch):
        system, host = build()
        system.seed_grant(APP, "alice")
        # The reply goes back to c0, so c0 must be a node on the network.
        system.network.register(UserClient("c0", "alice"))
        spawned = _count_processes(monkeypatch)
        host.handle_message("c0", AppRequest(request_id=1, application=APP, user="alice"))
        assert spawned == ["h0/serve:1"]
        assert host.stats["checks"] == 1  # counted by the probe, not again by _serve
        system.run(until=5)
        assert spawned == ["h0/serve:1"]
        assert host.stats["checks"] == 1 and host.stats["allowed"] == 1

    def test_probe_is_the_first_phase_of_check(self):
        """One hit implementation: ``check`` on a cached grant returns
        the probe's decision without yielding."""
        system, host = build()
        system.seed_grant(APP, "alice")
        host.request_access(APP, "alice")
        system.run(until=5)
        generator = host.pipeline.check(APP, "alice", Right.USE)
        try:
            next(generator)
        except StopIteration as stop:
            decision = stop.value
        else:  # pragma: no cover - the failure shape
            raise AssertionError("check yielded on a cache hit")
        assert decision.allowed and decision.reason == "cache" and decision.latency == 0.0
        assert host.pipeline.probe(APP, "nobody", Right.USE) is None


# -- equivalence -------------------------------------------------------------------

#: (send time, user, application, payload).  No two requests reach the
#: host at the same instant: a hit is now traced and answered inside its
#: own delivery, where the generator-only path traced both deliveries
#: first and both checks after — same records, same times, interleaved
#: differently within that one instant.
SCRIPT = (
    (0.0, "alice", APP, "a1"),        # miss -> verified
    (1.0, "alice", APP, "a2"),        # hit
    (1.5, "mallory", APP, "m1"),      # miss -> denied
    (2.0, "mallory", APP, "m2"),      # deny-cached
    (2.5, "alice", "ghost", "g1"),    # unknown application
    (3.0, "alice", APP, "boom"),      # hit, application raises
    (3.5, "bob", APP, "boom"),        # miss -> verified, application raises
    (4.0, "alice", APP, "a3"),        # two hits in flight together
    (4.01, "alice", APP, "a4"),
    (20.0, "alice", APP, "a5"),       # expired -> verified again
    (20.5, "mallory", APP, "m3"),     # denial cache lapsed -> denied again
)


def run_script() -> dict:
    system, host = build(deny_cache_ttl=5.0)
    for user in ("alice", "bob"):
        system.seed_grant(APP, user)
        system.seed_grant("ghost", user)
    clients = {}
    for user in ("alice", "bob", "mallory"):
        clients[user] = UserClient(f"c-{user}", user)
        system.network.register(clients[user])
    results = []

    def driver():
        for when, user, application, payload in SCRIPT:
            if when > system.env.now:
                yield system.env.timeout(when - system.env.now)
            results.append(clients[user].request(host.address, application, payload))

    system.env.process(driver())
    system.run(until=40)
    document = {
        "records": [
            [record.time, record.kind, record.source, record.data]
            for record in system.tracer.log
        ],
        "stats": host.stats,
        "application_errors": host.application_errors,
        "results": [
            [r.value.allowed, r.value.result, r.value.reason, r.value.latency, r.value.timed_out]
            for r in results
        ],
    }
    return json.loads(json.dumps(document, default=repr))


def test_scripted_sequence_matches_the_generator_only_recording():
    golden = json.loads(FIXTURE.read_text())
    got = run_script()
    assert got["results"] == golden["results"]
    assert got["stats"] == golden["stats"]
    assert got["application_errors"] == golden["application_errors"]
    assert len(got["records"]) == len(golden["records"])
    for index, (have, want) in enumerate(zip(got["records"], golden["records"])):
        assert have == want, f"trace diverges at record {index}: {have!r} != {want!r}"


def test_script_covers_every_outcome():
    golden = json.loads(FIXTURE.read_text())
    kinds = {record[1] for record in golden["records"]}
    assert {"cache_hit", "cache_miss", "cache_expired", "access_denied"} <= kinds
    reasons = [result[2] for result in golden["results"]]
    assert "cache" in reasons and "verified" in reasons
    assert any("deny_cache" in reason for reason in reasons)
    assert any("no such application" in reason for reason in reasons)
    assert sum("application error" in reason for reason in reasons) == 2
    assert golden["stats"]["deny_cache_hits"] == 1


if __name__ == "__main__":
    document = run_script()
    records = ",\n".join(json.dumps(record) for record in document.pop("records"))
    head = json.dumps(document)[:-1]
    FIXTURE.write_text(f'{head}, "records": [\n{records}\n]}}\n')
