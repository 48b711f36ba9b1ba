"""Tests for the workload generators and the authorization oracle."""

from __future__ import annotations

import pytest

from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.core.system import AccessControlSystem
from repro.sim.network import FixedLatency
from repro.workloads.generators import (
    AccessWorkload,
    AuthorizationOracle,
    UpdateWorkload,
)
from repro.workloads.population import UserPopulation
from repro.workloads.scenarios import steady_state_scenario

APP = "app"


class TestOracle:
    def test_grant_and_revoke(self):
        oracle = AuthorizationOracle(expiry_bound=10.0)
        oracle.grant(APP, "u")
        assert oracle.is_authorized(APP, "u")
        oracle.revoke(APP, "u", time=100.0)
        assert not oracle.is_authorized(APP, "u")

    def test_grace_window(self):
        oracle = AuthorizationOracle(expiry_bound=10.0)
        oracle.grant(APP, "u")
        oracle.revoke(APP, "u", time=100.0)
        assert oracle.in_grace(APP, "u", 105.0)
        assert oracle.in_grace(APP, "u", 110.0)  # boundary inclusive
        assert not oracle.in_grace(APP, "u", 110.1)

    def test_violation_semantics(self):
        oracle = AuthorizationOracle(expiry_bound=10.0)
        oracle.grant(APP, "u")
        assert not oracle.violation(APP, "u", 50.0)  # authorized
        oracle.revoke(APP, "u", time=100.0)
        assert not oracle.violation(APP, "u", 105.0)  # grace
        assert oracle.violation(APP, "u", 150.0)  # stale
        oracle.grant(APP, "u")  # re-granted
        assert not oracle.violation(APP, "u", 200.0)

    def test_never_granted_never_in_grace(self):
        oracle = AuthorizationOracle(expiry_bound=10.0)
        assert not oracle.in_grace(APP, "ghost", 0.0)
        assert oracle.violation(APP, "ghost", 0.0)


def small_system(seed=0):
    return AccessControlSystem(
        n_managers=3,
        n_hosts=2,
        applications=(APP,),
        policy=AccessPolicy(check_quorum=2, expiry_bound=60.0, max_attempts=2,
                            query_timeout=1.0),
        latency=FixedLatency(0.02),
        seed=seed,
    )


class TestAccessWorkload:
    def test_generates_observations_with_ground_truth(self):
        system = small_system()
        population = UserPopulation(10)
        oracle = AuthorizationOracle(60.0)
        for user in population.head(5):
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        finished = []
        workload = AccessWorkload(
            system, APP, population, oracle, rate=5.0,
            rng=system.streams.stream("w"), on_decision=finished.append,
        )
        system.run(until=60.0)
        assert workload.attempts > 100
        assert len(finished) == workload.decisions > 100
        for obs in finished:
            assert obs.authorized == (obs.user in set(population.head(5)))
            if obs.authorized:
                assert obs.decision.allowed

    def test_on_decision_callback(self):
        system = small_system()
        population = UserPopulation(3)
        oracle = AuthorizationOracle(60.0)
        seen = []
        AccessWorkload(
            system, APP, population, oracle, rate=2.0,
            rng=system.streams.stream("w"), on_decision=seen.append,
        )
        system.run(until=20.0)
        assert seen  # callback invoked

    def test_invalid_rate(self):
        system = small_system()
        with pytest.raises(ValueError):
            AccessWorkload(
                system, APP, UserPopulation(3), AuthorizationOracle(60.0), rate=0.0
            )

    def test_skips_crashed_hosts(self):
        system = small_system()
        for host in system.hosts:
            host.crash()
        population = UserPopulation(3)
        oracle = AuthorizationOracle(60.0)
        seen = []
        workload = AccessWorkload(
            system, APP, population, oracle, rate=5.0,
            rng=system.streams.stream("w"), on_decision=seen.append,
        )
        system.run(until=10.0)
        assert seen == []
        assert workload.decisions == 0


class TestUpdateWorkload:
    def test_issues_adds_and_revokes(self):
        system = small_system()
        population = UserPopulation(10)
        oracle = AuthorizationOracle(60.0)
        for user in population.head(5):
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        workload = UpdateWorkload(
            system, APP, population, oracle, rate=1.0,
            rng=system.streams.stream("u"), target_fraction=0.5,
        )
        system.run(until=60.0)
        assert workload.adds > 0
        assert workload.revokes > 0

    def test_oracle_tracks_manager_state(self):
        """After the run settles, the oracle and the managers agree."""
        system = small_system()
        population = UserPopulation(6)
        oracle = AuthorizationOracle(60.0)
        UpdateWorkload(
            system, APP, population, oracle, rate=0.5,
            rng=system.streams.stream("u"), target_fraction=0.5,
        )
        system.run(until=100.0)
        system.run(until=140.0)  # quiesce: let dissemination finish
        for user in population:
            assert oracle.is_authorized(APP, user) == system.managers[0].acl(
                APP
            ).check(user, Right.USE)

    def test_on_update_callback(self):
        system = small_system()
        events = []
        UpdateWorkload(
            system, APP, UserPopulation(4), AuthorizationOracle(60.0), rate=1.0,
            rng=system.streams.stream("u"),
            on_update=lambda app, user, grant, t: events.append((user, grant)),
        )
        system.run(until=30.0)
        assert events

    def test_invalid_params(self):
        system = small_system()
        with pytest.raises(ValueError):
            UpdateWorkload(
                system, APP, UserPopulation(3), AuthorizationOracle(60.0), rate=0.0
            )
        with pytest.raises(ValueError):
            UpdateWorkload(
                system, APP, UserPopulation(3), AuthorizationOracle(60.0),
                rate=1.0, target_fraction=1.5,
            )


class TestScenario:
    def test_steady_state_builder(self):
        scenario = steady_state_scenario(
            AccessPolicy(check_quorum=2, expiry_bound=60.0),
            n_managers=3, n_hosts=2, n_users=20, access_rate=3.0,
            update_rate=0.1, seed=1,
        )
        seen = []
        scenario.access.on_decision = seen.append
        scenario.run(until=60.0)
        assert seen
        assert scenario.updates is not None
        authorized = sum(
            1 for user in scenario.population
            if scenario.oracle.is_authorized(scenario.application, user)
        )
        assert authorized > 0

    def test_updates_optional(self):
        scenario = steady_state_scenario(
            AccessPolicy(check_quorum=1, expiry_bound=60.0),
            n_managers=2, n_hosts=1, n_users=5, update_rate=None, seed=2,
        )
        assert scenario.updates is None


class TestFlashCrowd:
    def test_crowd_completes_and_caches_warm(self):
        from repro.workloads.generators import FlashCrowdWorkload

        system = small_system(seed=42)
        population = UserPopulation(20, prefix="crowd")
        oracle = AuthorizationOracle(60.0)
        for user in population:
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        observed = []
        crowd = FlashCrowdWorkload(
            system, APP, list(population), oracle,
            start=10.0, accesses_per_user=4, think_time=1.0,
            on_decision=observed.append,
        )
        system.run(until=60.0)
        assert crowd.done.triggered
        assert len(observed) == crowd.decisions == 20 * 4
        assert all(obs.decision.allowed for obs in observed)
        # First access per user misses; the rest hit the warm cache.
        misses = sum(
            1 for obs in observed
            if obs.decision.reason == "verified"
        )
        hits = sum(
            1 for obs in observed
            if obs.decision.reason == "cache"
        )
        assert misses == 20
        assert hits == 60

    def test_no_accesses_before_start(self):
        from repro.workloads.generators import FlashCrowdWorkload

        system = small_system(seed=43)
        population = UserPopulation(3)
        oracle = AuthorizationOracle(60.0)
        for user in population:
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        seen = []
        crowd = FlashCrowdWorkload(
            system, APP, list(population), oracle, start=50.0,
            on_decision=seen.append,
        )
        system.run(until=40.0)
        assert seen == []
        system.run(until=100.0)
        assert crowd.done.triggered

    def test_invalid_params(self):
        from repro.workloads.generators import FlashCrowdWorkload

        system = small_system(seed=44)
        with pytest.raises(ValueError):
            FlashCrowdWorkload(
                system, APP, ["u"], AuthorizationOracle(60.0),
                start=0.0, accesses_per_user=0,
            )


class TestAuthorizedCount:
    def test_counts_track_grant_revoke(self):
        oracle = AuthorizationOracle(60.0)
        assert oracle.authorized_count(APP) == 0
        oracle.grant(APP, "a")
        oracle.grant(APP, "b")
        oracle.grant(APP, "a")  # idempotent
        assert oracle.authorized_count(APP) == 2
        oracle.revoke(APP, "a", time=1.0)
        oracle.revoke(APP, "a", time=2.0)  # idempotent
        assert oracle.authorized_count(APP) == 1
        assert oracle.authorized_count("other") == 0

    def test_update_workload_never_scans_population(self):
        """The O(1) counter keeps update cost independent of n_users."""
        system = small_system()
        population = UserPopulation(100_000)

        class CountingOracle(AuthorizationOracle):
            calls = 0

            def is_authorized(self, application, user):
                CountingOracle.calls += 1
                return super().is_authorized(application, user)

        oracle = CountingOracle(60.0)
        UpdateWorkload(
            system, APP, population, oracle, rate=1.0,
            rng=system.streams.stream("u"),
        )
        system.run(until=60.0)
        # One membership probe per issued update, not one per user.
        assert 0 < CountingOracle.calls < 1000


class TestDiurnalAccessWorkload:
    def test_flat_float_path_draw_identical(self):
        """Passing a float must replay the exact historical stream."""
        def run_once():
            system = small_system(seed=9)
            population = UserPopulation(10)
            oracle = AuthorizationOracle(60.0)
            for user in population.head(5):
                system.seed_grant(APP, user)
                oracle.grant(APP, user)
            observed = []
            AccessWorkload(
                system, APP, population, oracle, rate=5.0,
                rng=system.streams.stream("w"), on_decision=observed.append,
            )
            system.run(until=30.0)
            return [(o.time, o.user) for o in observed]

        assert run_once() == run_once()

    def test_diurnal_profile_shapes_traffic(self):
        from repro.workloads.population import DiurnalRate

        system = small_system(seed=10)
        population = UserPopulation(5)
        oracle = AuthorizationOracle(60.0)
        for user in population:
            system.seed_grant(APP, user)
            oracle.grant(APP, user)
        profile = DiurnalRate(base=20.0, amplitude=0.9, period=200.0)
        observed = []
        workload = AccessWorkload(
            system, APP, population, oracle, rate=profile,
            rng=system.streams.stream("w"), on_decision=observed.append,
        )
        system.run(until=200.0)
        # Peak quarter-cycle is centred on t=50, trough on t=150.
        peak = sum(1 for o in observed if 25 <= o.time < 75)
        trough = sum(1 for o in observed if 125 <= o.time < 175)
        assert peak > 3 * trough
        assert workload.attempts > 0

    def test_diurnal_rate_validated_via_dataclass(self):
        from repro.workloads.population import DiurnalRate

        system = small_system(seed=11)
        profile = DiurnalRate(base=1.0, amplitude=0.0)
        workload = AccessWorkload(
            system, APP, UserPopulation(3), AuthorizationOracle(60.0),
            rate=profile, rng=system.streams.stream("w"),
        )
        assert workload.rate is profile
