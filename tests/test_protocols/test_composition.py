"""Tests for the strategy layer: selection, combiners, and composing a
new protocol variant (weighted voting) without touching the host."""

from __future__ import annotations

import pytest

from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.messages import QueryResponse, Verdict
from repro.core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from repro.core.rights import AclEntry, Right, Version
from repro.protocols import (
    ByzantineVouchCombiner,
    FreezeStrategy,
    HighestVersionCombiner,
    QueryPlanner,
    QuorumStrategy,
    WeightedVoteCombiner,
    combiner_for,
    dissemination_strategy_for,
    planner_for,
)
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.trace import Tracer

APP = "app"


def response(manager, verdict=Verdict.GRANT, counter=1, origin="m0"):
    return QueryResponse(
        query_id=1, application=APP, user="u", right=Right.USE,
        verdict=verdict, te=10.0, version=Version(counter, origin),
        manager=manager,
    )


class TestStrategySelection:
    def test_planner_follows_query_strategy(self):
        # One planner class; a strategy is only its batch cut.
        planners = [
            planner_for(AccessPolicy(query_strategy=strategy))
            for strategy in QueryStrategy
        ]
        assert all(type(planner) is QueryPlanner for planner in planners)
        assert len({planner.cut for planner in planners}) == len(QueryStrategy)
        assert planner_for(AccessPolicy()) is planner_for(
            AccessPolicy(query_strategy=QueryStrategy.QUORUM)
        )

    def test_combiner_follows_byzantine_f(self):
        assert isinstance(combiner_for(AccessPolicy()), HighestVersionCombiner)
        byz = combiner_for(AccessPolicy(byzantine_f=1, check_quorum=3))
        assert isinstance(byz, ByzantineVouchCombiner)
        assert byz.f == 1

    def test_dissemination_follows_use_freeze(self):
        assert isinstance(
            dissemination_strategy_for(AccessPolicy()), QuorumStrategy
        )
        assert isinstance(
            dissemination_strategy_for(
                AccessPolicy(use_freeze=True, inaccessibility_period=30.0)
            ),
            FreezeStrategy,
        )

    def test_quorum_needed_mirrors_policy(self):
        policy = AccessPolicy(check_quorum=2)
        assert QuorumStrategy().quorum_needed(policy, 5) == 4  # M - C + 1
        frozen = AccessPolicy(use_freeze=True, inaccessibility_period=30.0)
        assert FreezeStrategy().quorum_needed(frozen, 5) == 5  # all


class TestCombiners:
    def test_highest_version_wins(self):
        combiner = HighestVersionCombiner()
        picked = combiner.combine(
            [response("m0", counter=1), response("m1", counter=7)], required=2
        )
        assert picked.version.counter == 7

    def test_short_round_is_indecisive(self):
        assert HighestVersionCombiner().combine(
            [response("m0")], required=2
        ) is None

    def test_byzantine_needs_f_plus_one_vouchers(self):
        combiner = ByzantineVouchCombiner(f=1)
        lone_lie = [response("m0", counter=9), response("m1", counter=1),
                    response("m2", counter=1)]
        picked = combiner.combine(lone_lie, required=3)
        assert picked.version.counter == 1  # the vouched pair, not the lie

    def test_byzantine_rejects_f_below_one(self):
        with pytest.raises(ValueError):
            ByzantineVouchCombiner(f=0)

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            WeightedVoteCombiner({"m0": 1.0}, check_threshold=0)
        with pytest.raises(ValueError):
            WeightedVoteCombiner({"m0": -1.0}, check_threshold=1)
        with pytest.raises(ValueError):
            WeightedVoteCombiner({"m0": 1.0}, check_threshold=2.0)

    def test_weighted_votes_decide(self):
        combiner = WeightedVoteCombiner(
            {"m0": 2.0, "m1": 2.0, "m2": 1.0}, check_threshold=4.0
        )
        # m2 alone (weight 1) cannot decide...
        assert combiner.combine([response("m2")], required=1) is None
        assert not combiner.round_complete([response("m2")], required=1)
        # ...but the two heavy managers agreeing carry 4 votes.
        heavy = [response("m0"), response("m1")]
        assert combiner.round_complete(heavy, required=3)
        assert combiner.combine(heavy, required=3) is not None

    def test_weighted_votes_split_by_verdict_and_version(self):
        combiner = WeightedVoteCombiner(
            {"m0": 2.0, "m1": 2.0}, check_threshold=4.0
        )
        split = [response("m0", verdict=Verdict.GRANT),
                 response("m1", verdict=Verdict.DENY)]
        assert combiner.combine(split, required=2) is None  # 2 + 2, no pair


class WeightedHarness:
    """A stock host composed with a WeightedVoteCombiner — the new
    variant must be pure composition, no host subclass involved."""

    def __init__(self, weights, check_threshold, n_managers=3):
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=True)
        self.network = Network(
            self.env, latency=FixedLatency(0.05), tracer=self.tracer
        )
        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        policy = AccessPolicy(
            check_quorum=n_managers,
            expiry_bound=100.0,
            query_timeout=1.0,
            max_attempts=1,
            exhausted_action=ExhaustedAction.DENY,
            cache_cleanup_interval=None,
        )
        self.managers = []
        for addr in self.manager_addrs:
            manager = AccessControlManager(addr, policy)
            manager.manage(APP, self.manager_addrs)
            self.network.register(manager)
            self.managers.append(manager)
        self.host = AccessControlHost(
            "h0", policy, managers={APP: self.manager_addrs},
            clock=LocalClock(self.env),
        )
        self.host.pipeline.combiner_factory = (
            lambda _policy: WeightedVoteCombiner(weights, check_threshold)
        )
        self.network.register(self.host)

    def grant_everywhere(self, user):
        entry = AclEntry(user, Right.USE, True, Version(1, "~seed"))
        for manager in self.managers:
            manager.bootstrap(APP, [entry])

    def check(self, user):
        process = self.host.request_access(APP, user)
        self.env.run(until=self.env.now + 30.0)
        return process.value


class TestWeightedVariantByComposition:
    def test_weighted_grant_without_touching_host(self):
        harness = WeightedHarness(
            {"m0": 2.0, "m1": 2.0, "m2": 1.0}, check_threshold=3.0
        )
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed
        assert decision.reason == DecisionReason.VERIFIED
        assert type(harness.host) is AccessControlHost  # stock class

    def test_light_managers_alone_cannot_decide(self):
        # Only the weight-1 manager is reachable; threshold 3 is out of
        # reach, so the round is indecisive and the check exhausts.
        harness = WeightedHarness(
            {"m0": 2.0, "m1": 2.0, "m2": 1.0}, check_threshold=3.0
        )
        harness.grant_everywhere("alice")
        harness.managers[0].crash()
        harness.managers[1].crash()
        decision = harness.check("alice")
        assert not decision.allowed
        assert decision.reason == DecisionReason.EXHAUSTED

    def test_heavy_pair_survives_light_crash(self):
        harness = WeightedHarness(
            {"m0": 2.0, "m1": 2.0, "m2": 1.0}, check_threshold=3.0
        )
        harness.grant_everywhere("alice")
        harness.managers[2].crash()
        decision = harness.check("alice")
        assert decision.allowed  # m0 + m1 carry 4 >= 3 votes
