"""Tests for the AccessControlSystem builder."""

from __future__ import annotations

import pytest

from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.core.system import AccessControlSystem


class TestBuilder:
    def test_default_construction(self):
        system = AccessControlSystem()
        assert system.n_managers == 5
        assert system.n_hosts == 10
        assert system.applications == ("app",)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            AccessControlSystem(n_managers=0)
        with pytest.raises(ValueError):
            AccessControlSystem(n_hosts=-1)
        with pytest.raises(ValueError):
            AccessControlSystem(applications=())

    def test_policy_checked_against_manager_count(self):
        with pytest.raises(ValueError):
            AccessControlSystem(
                n_managers=2, policy=AccessPolicy(check_quorum=3)
            )

    def test_all_nodes_registered(self):
        system = AccessControlSystem(n_managers=3, n_hosts=2)
        assert set(system.network.addresses()) == {"m0", "m1", "m2", "h0", "h1"}

    def test_managers_know_each_application(self):
        system = AccessControlSystem(
            n_managers=2, n_hosts=1, applications=("a", "b"),
            policy=AccessPolicy(check_quorum=2),
        )
        for manager in system.managers:
            assert manager.applications() == ["a", "b"]

    def test_seed_grant_reaches_all_managers(self):
        system = AccessControlSystem(n_managers=3, n_hosts=0)
        system.seed_grant("app", "u", Right.USE)
        for manager in system.managers:
            assert manager.acl("app").check("u", Right.USE)

    def test_seed_grants_plural(self):
        system = AccessControlSystem(n_managers=2, n_hosts=0,
                                     policy=AccessPolicy(check_quorum=2))
        system.seed_grants("app", ["a", "b", "c"])
        assert system.managers[0].acl("app").users_with(Right.USE) == ["a", "b", "c"]

    def test_clock_drift_bounded_by_policy(self):
        policy = AccessPolicy(clock_bound=1.2)
        system = AccessControlSystem(n_hosts=20, policy=policy)
        for host in system.hosts:
            assert host.clock.rate >= 1.0 / 1.2 - 1e-9

    def test_clock_drift_disabled(self):
        system = AccessControlSystem(n_hosts=3, clock_drift=False)
        assert all(host.clock.rate == 1.0 for host in system.hosts)

    def test_same_seed_same_behaviour(self):
        def run_once():
            system = AccessControlSystem(n_managers=3, n_hosts=1, seed=5)
            system.seed_grant("app", "u")
            process = system.hosts[0].request_access("app", "u")
            system.run(until=10)
            return process.value.latency

        assert run_once() == run_once()

    def test_failure_injectors_created(self):
        system = AccessControlSystem(
            n_hosts=2, host_failures=(100.0, 10.0), manager_failures=(200.0, 10.0)
        )
        assert system.host_injector is not None
        assert system.manager_injector is not None

    def test_register_application_later(self):
        system = AccessControlSystem(n_managers=3, n_hosts=1)
        system.register_application("late-app")
        system.seed_grant("late-app", "u")
        process = system.hosts[0].request_access("late-app", "u")
        system.run(until=10)
        assert process.value.allowed

    def test_reachable_managers_ground_truth(self):
        system = AccessControlSystem(n_managers=4, n_hosts=1)
        assert system.reachable_managers_from(0) == 4
        system.managers[0].crash()
        assert system.reachable_managers_from(0) == 3


class TestSetAppPolicy:
    def test_installed_everywhere(self):
        from repro.core.policy import ExhaustedAction

        system = AccessControlSystem(
            n_managers=3, n_hosts=2, applications=("a", "b"),
            policy=AccessPolicy(check_quorum=2),
        )
        lenient = AccessPolicy(
            check_quorum=1, max_attempts=2,
            exhausted_action=ExhaustedAction.ALLOW,
        )
        system.set_app_policy("b", lenient)
        for host in system.hosts:
            assert host.policy_for("b") is lenient
            assert host.policy_for("a").check_quorum == 2
        for manager in system.managers:
            assert manager.policy_for("b") is lenient

    def test_validated_against_manager_count(self):
        system = AccessControlSystem(n_managers=2, n_hosts=1,
                                     policy=AccessPolicy(check_quorum=2))
        with pytest.raises(ValueError):
            system.set_app_policy("app", AccessPolicy(check_quorum=5))
