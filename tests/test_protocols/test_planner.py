"""The one query planner: batch cuts, quorum-width rounds, silent managers.

``run_round`` walks the batches a strategy's cut yields; the default
``QUORUM`` cut asks ``C`` managers (rotating per host), lets currently
silent ones ride along, and leaves everyone else for a second batch
that is only sent if the first falls short by ``query_timeout``.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.analysis.costs import miss_messages
from repro.core.host import DecisionReason
from repro.core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from repro.core.system import AccessControlSystem
from repro.protocols.planner import planner_for
from repro.sim.partitions import PairEpochModel
from repro.sim.trace import TraceKind
from repro.workloads.generators import AccessWorkload, AuthorizationOracle
from repro.workloads.population import UserPopulation

from ..test_core.test_host import APP, Harness, policy

MANAGERS = ("m0", "m1", "m2", "m3", "m4")


def cut(strategy, required, silent=(), rounds_before=0, managers=MANAGERS):
    host = SimpleNamespace(_rounds=itertools.count(rounds_before), _silent=set(silent))
    return planner_for(AccessPolicy(query_strategy=strategy)).cut(host, managers, required)


def queries_sent(harness) -> list:
    return [r.data["manager"] for r in harness.tracer.records(TraceKind.QUERY_SENT)]


class TestBatchCuts:
    def test_parallel_is_one_batch_of_everyone(self):
        assert cut(QueryStrategy.PARALLEL, 2) == [list(MANAGERS)]

    def test_sequential_is_one_manager_per_batch_rotating(self):
        assert cut(QueryStrategy.SEQUENTIAL, 2, rounds_before=3) == [
            ["m3"], ["m4"], ["m0"], ["m1"], ["m2"]
        ]

    def test_quorum_is_c_preferred_then_the_rest(self):
        assert cut(QueryStrategy.QUORUM, 2) == [["m0", "m1"], ["m2", "m3", "m4"]]
        assert cut(QueryStrategy.QUORUM, 3, rounds_before=4) == [
            ["m4", "m0", "m1"], ["m2", "m3"]
        ]

    def test_quorum_of_everyone_has_no_second_batch(self):
        assert cut(QueryStrategy.QUORUM, 5, rounds_before=1) == [
            ["m1", "m2", "m3", "m4", "m0"]
        ]

    def test_silent_managers_go_last_but_ride_along_as_extras(self):
        # m0 would have been preferred; silent, it is only an extra.
        assert cut(QueryStrategy.QUORUM, 2, silent={"m0", "m3"}) == [
            ["m1", "m2", "m0", "m3"], ["m4"]
        ]

    def test_too_few_talkative_managers_means_ask_everyone(self):
        assert cut(QueryStrategy.QUORUM, 3, silent={"m0", "m1", "m2"}) == [
            ["m3", "m4", "m0", "m1", "m2"]
        ]
        everyone = cut(QueryStrategy.QUORUM, 2, silent=set(MANAGERS), rounds_before=2)
        assert everyone == [["m2", "m3", "m4", "m0", "m1"]]


class TestHealthyCell:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_a_miss_asks_exactly_c_managers(self, c):
        harness = Harness(policy(check_quorum=c))
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed and decision.reason == DecisionReason.VERIFIED
        assert (decision.attempts, decision.responses) == (1, c)
        assert len(queries_sent(harness)) == c
        assert 2 * c == miss_messages(harness.host.default_policy, 3)
        assert harness.tracer.count(TraceKind.QUERY_ANSWERED) == c
        assert harness.host.late_manager_responses == 0
        assert not harness.host._pending_queries and not harness.host._silent

    def test_misses_spread_evenly_over_the_managers(self):
        harness = Harness(policy(check_quorum=2), n_managers=5)
        k = 4
        for index in range(k * 5):
            harness.grant_everywhere(f"p{index}")
            assert harness.check(f"p{index}", run_for=1.0).allowed
        asked = [manager.stats["queries"] for manager in harness.managers]
        assert sum(asked) == k * 5 * 2
        assert all(abs(count - k * 2) <= 1 for count in asked), asked
        assert harness.host.late_manager_responses == 0


class TestSilentManager:
    def test_round_widens_once_then_the_silent_manager_is_asked_last(self):
        harness = Harness(policy())  # C = 2 of 3, timeout 1.0, one-way 0.05
        host = harness.host
        for user in ("alice", "bob", "carol", "dave"):
            harness.grant_everywhere(user)
        harness.connectivity.isolate("h0", ["m1"])

        # First batch [m0, m1]: m1 never answers; at the timeout the round
        # widens to m2 and decides in the same attempt.
        decision = harness.check("alice")
        assert decision.allowed and (decision.attempts, decision.responses) == (1, 2)
        assert decision.latency == pytest.approx(1.0 + 0.1)
        assert queries_sent(harness) == ["m0", "m1", "m2"]
        assert harness.tracer.count(TraceKind.QUERY_TIMEOUT) == 0
        assert host._silent == {"m1"}

        # The next miss does not wait: m1 is an extra beside two others.
        decision = harness.check("bob")
        assert decision.allowed and decision.latency == pytest.approx(0.1)
        assert queries_sent(harness)[3:] == ["m2", "m0", "m1"]
        assert host._silent == {"m1"}

        # Healed: the extra query is answered, and m1 is back in rotation.
        harness.connectivity.heal()
        assert harness.check("carol").latency == pytest.approx(0.1)
        assert sorted(queries_sent(harness)[6:]) == ["m0", "m1", "m2"]
        assert host._silent == set()
        assert harness.check("dave").latency == pytest.approx(0.1)
        assert queries_sent(harness)[9:] == ["m0", "m1"]
        assert harness.tracer.count(TraceKind.QUERY_TIMEOUT) == 0

    def test_a_late_answer_ends_the_silence_too(self):
        # Round trip 0.1 > timeout 0.06: every batch times out, every
        # answer is late, and each late answer clears its sender.
        harness = Harness(policy(max_attempts=1, query_timeout=0.06))
        harness.grant_everywhere("alice")
        process = harness.host.request_access(APP, "alice")
        harness.env.run(until=0.09)
        assert harness.host._silent == {"m0", "m1"}  # batch two is out
        harness.env.run(until=0.13)
        assert harness.host._silent == {"m2"}  # m0, m1 answered late
        harness.env.run(until=1.0)
        assert harness.host._silent == set()
        assert not process.value.allowed
        assert process.value.reason == DecisionReason.EXHAUSTED
        assert harness.host.late_manager_responses == 3
        assert not harness.host._pending_queries

    def test_host_crash_forgets_the_silent_set(self):
        harness = Harness(policy(max_attempts=1))
        harness.connectivity.isolate("h0", ["m0"])
        harness.check("mallory")
        assert harness.host._silent == {"m0"}
        harness.host.crash()
        assert harness.host._silent == set()


class TestTooFewReachable:
    @pytest.mark.parametrize(
        "action", [ExhaustedAction.DENY, ExhaustedAction.ALLOW], ids=lambda a: a.value
    )
    def test_same_decision_and_attempts_as_the_full_fan_out(self, action):
        decisions = {}
        for strategy in (QueryStrategy.QUORUM, QueryStrategy.PARALLEL):
            harness = Harness(
                policy(max_attempts=2, exhausted_action=action, query_strategy=strategy)
            )
            harness.grant_everywhere("alice")
            harness.connectivity.isolate("h0", ["m1", "m2"])  # one of C = 2 reachable
            decision = harness.check("alice")
            decisions[strategy] = (
                decision.allowed, decision.reason, decision.attempts, decision.responses
            )
            assert harness.tracer.count(TraceKind.QUERY_TIMEOUT) == 2
            assert len(harness.host.cache_for(APP)) == 0
        assert decisions[QueryStrategy.QUORUM] == decisions[QueryStrategy.PARALLEL]
        allowed, reason, attempts, _ = decisions[QueryStrategy.QUORUM]
        assert attempts == 2
        assert (allowed, reason) == (
            (True, DecisionReason.DEFAULT_ALLOW)
            if action is ExhaustedAction.ALLOW
            else (False, DecisionReason.EXHAUSTED)
        )


class TestSameOutagesSameAvailability:
    """Asking ``C`` first changes when a check is decided, not whether:
    ``C`` answers can be had exactly when ``C`` managers are reachable."""

    @staticmethod
    def exhausted_and_allowed(strategy, seed):
        system = AccessControlSystem(
            n_managers=3,
            n_hosts=5,
            policy=AccessPolicy(
                check_quorum=2, expiry_bound=120.0, max_attempts=3,
                exhausted_action=ExhaustedAction.DENY, query_strategy=strategy,
            ),
            connectivity=PairEpochModel(pi=0.15, mean_outage=60.0),
            seed=seed,
        )
        # The model shares the network's random stream and creates a
        # pair's state when the pair is first used, so the protocol's own
        # draws and asking order would shift the outages: give it its own
        # stream and touch every pair up front.
        model = system.network.connectivity
        model.rng = random.Random(seed)
        nodes = [host.address for host in system.hosts] + list(system.manager_addrs)
        for a, b in itertools.combinations(nodes, 2):
            model.is_reachable(a, b)
        population = UserPopulation(40, zipf_s=1.0)
        oracle = AuthorizationOracle(expiry_bound=120.0)
        for user in population:
            system.seed_grant("app", user)
            oracle.grant("app", user)
        tally = {DecisionReason.EXHAUSTED: 0, "allowed": 0}

        def observe(observed):
            tally["allowed"] += observed.decision.allowed
            if observed.decision.reason == DecisionReason.EXHAUSTED:
                tally[DecisionReason.EXHAUSTED] += 1

        AccessWorkload(
            system, "app", population, oracle, rate=2.0,
            on_decision=observe,
        )
        system.run(until=600.0)
        return tally[DecisionReason.EXHAUSTED], tally["allowed"]

    @pytest.mark.parametrize("seed", [3, 8])
    def test_quorum_exhausts_the_checks_the_full_fan_out_exhausts(self, seed):
        fan_out = self.exhausted_and_allowed(QueryStrategy.PARALLEL, seed)
        quorum = self.exhausted_and_allowed(QueryStrategy.QUORUM, seed)
        assert fan_out[0] >= 5  # the outages bite
        assert abs(quorum[0] - fan_out[0]) <= 1 and abs(quorum[1] - fan_out[1]) <= 1
