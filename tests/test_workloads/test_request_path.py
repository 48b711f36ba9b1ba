"""The access workloads' one request path, and the schedule it keeps.

A simulated check is Figure 3's cache probe first: a hit is decided and
reported inside the workload's step, with nothing put on the engine; a
miss is one process, the host's ``check_access`` itself, whose query
rounds each wait on one event.  Two kinds of test here:

* **structure** — count engine queue entries and processes (no timing);
* **schedule pin** — a small ``sim_cell``-shaped scenario (500 users,
  60 sim-s, ``PairEpochModel(0.1, 30)``, host and manager failures)
  decides the checks, sends the messages and makes the decisions that
  the two-process request and the ``any_of`` round made before it.  The
  constants below were recorded from that implementation; a change
  that moves an event of the schedule moves them.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import LocalOnlySystem
from repro.core.policy import AccessPolicy
from repro.core.system import AccessControlSystem
from repro.sim import engine
from repro.sim.network import FixedLatency
from repro.sim.partitions import PairEpochModel
from repro.workloads.generators import AuthorizationOracle, PeriodicWorkload
from repro.workloads.scenarios import steady_state_scenario

APP = "app"

#: Recorded from the request path that ran every check as two processes.
PINNED_DECIDED = 12079
PINNED_MSG_SENT = 32447
PINNED_DIGEST = "70b6c9ed97cfaf7fa439eba7df477ad0ba7666b2952096dd3d0e24b5b1564221"


def test_sim_cell_shaped_schedule_is_pinned():
    scenario = steady_state_scenario(
        AccessPolicy(check_quorum=3, expiry_bound=60), n_managers=5, n_hosts=8,
        n_users=500, authorized_fraction=0.8, access_rate=200, update_rate=1.0,
        connectivity=PairEpochModel(0.1, 30), host_failures=(600, 30),
        manager_failures=(900, 30), seed=1,
    )
    digest = hashlib.sha256()
    decided = 0

    def on_decision(observed):
        nonlocal decided
        decided += 1
        decision = observed.decision
        digest.update(
            f"{observed.time!r} {observed.host} {observed.user} "
            f"{decision.allowed} {decision.reason}\n".encode()
        )

    scenario.access.on_decision = on_decision
    scenario.run(60.0)
    assert decided == PINNED_DECIDED
    assert scenario.tracer.counts()["msg_sent"] == PINNED_MSG_SENT
    assert digest.hexdigest() == PINNED_DIGEST


# -- structure -----------------------------------------------------------------------


def _system():
    system = AccessControlSystem(
        n_managers=3, n_hosts=1, applications=(APP,),
        policy=AccessPolicy(check_quorum=2, expiry_bound=60.0),
        latency=FixedLatency(0.05), seed=3,
    )
    system.seed_grant(APP, "alice")
    return system


def _workload(system, decisions):
    oracle = AuthorizationOracle(expiry_bound=60.0)
    oracle.grant(APP, "alice")
    # No users: the workload only serves the requests a test makes.
    return PeriodicWorkload(system, APP, [], oracle, on_decision=decisions.append)


def _count_schedules(monkeypatch, env):
    scheduled = []
    original = env._schedule

    def counting(event, delay):
        scheduled.append(event)
        original(event, delay)

    monkeypatch.setattr(env, "_schedule", counting)
    return scheduled


def _count_processes(monkeypatch):
    names = []
    original = engine.Process.__init__

    def counting(self, env, generator, name=None):
        names.append(getattr(generator, "__name__", None))
        original(self, env, generator, name=name)

    monkeypatch.setattr(engine.Process, "__init__", counting)
    return names


def _warm(system, workload, decisions):
    host = system.hosts[0]
    system.run(until=1.0)  # the workload's start-up step
    workload._request(host, "alice", True)
    system.run(until=2.0)
    assert decisions[-1].decision.reason == "verified"
    return host


def test_a_cached_hit_adds_no_engine_queue_entry(monkeypatch):
    system = _system()
    decisions = []
    workload = _workload(system, decisions)
    host = _warm(system, workload, decisions)
    queued = len(system.env._queue)
    scheduled = _count_schedules(monkeypatch, system.env)
    processes = _count_processes(monkeypatch)

    assert workload._request(host, "alice", True) is None
    assert scheduled == [] and processes == []
    assert len(system.env._queue) == queued
    assert decisions[-1].decision.reason == "cache"
    assert decisions[-1].time == system.env.now == 2.0
    assert workload.decisions == 2


def test_a_miss_starts_exactly_one_process(monkeypatch):
    system = _system()
    decisions = []
    workload = _workload(system, decisions)
    system.run(until=1.0)
    processes = _count_processes(monkeypatch)

    check = workload._request(system.hosts[0], "alice", True)
    assert check is not None and decisions == []
    system.run(until=2.0)
    assert processes == ["check_access"]
    assert [d.decision.reason for d in decisions] == ["verified"]
    assert decisions[0].time == 1.0 and check.value is decisions[0].decision


def test_a_query_round_waits_on_one_event_per_batch(monkeypatch):
    """A healthy QUORUM round: the host's process resumes from the
    ``done`` event the answers trigger, with no composite event and its
    timer dead on the queue."""
    system = _system()
    decisions = []
    workload = _workload(system, decisions)
    system.run(until=1.0)
    scheduled = _count_schedules(monkeypatch, system.env)
    workload._request(system.hosts[0], "alice", True)
    system.run(until=2.0)
    assert not any(type(event) is engine.AnyOf for event in scheduled)
    timers = [event for event in scheduled if type(event) is engine.Timeout]
    assert len(timers) == 1 and timers[0]._cancelled


def test_a_baseline_host_offers_the_same_two_phase_entry():
    system = LocalOnlySystem(n_managers=1, n_hosts=1, latency=FixedLatency(0.05))
    system.seed_grant(APP, "alice")
    decisions = []
    workload = PeriodicWorkload(system, APP, [], on_decision=decisions.append)
    system.run(until=1.0)
    check = workload._request(system.hosts[0], "alice", None)
    system.run(until=2.0)
    assert check.value.allowed and decisions[0].decision is check.value


def test_a_miss_that_raises_raises_out_of_run(monkeypatch):
    system = _system()
    workload = _workload(system, [])
    host = system.hosts[0]
    system.run(until=1.0)

    def boom(*_args, **_kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(host.pipeline, "verify", boom)
    workload._request(host, "alice", True)
    with pytest.raises(RuntimeError, match="boom"):
        system.run(until=2.0)
