"""Edge cases across the core protocol that the main suites skim over."""

from __future__ import annotations

import pytest

from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.policy import (
    AccessPolicy,
    ExhaustedAction,
    QueryStrategy,
)
from repro.core.rights import AclEntry, Right, Version
from repro.core.system import AccessControlSystem
from repro.core.wrapper import Application, ApplicationHost
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network, ShiftedExponentialLatency
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import Tracer

APP = "app"


class TestHostIdentitySubjects:
    """Section 2.1: "we could state it just as easily in terms of a
    host having the right to send a message to an application on
    another host.  In this case, a host would be identified by its
    Internet address."  Subjects are opaque strings, so host addresses
    work unchanged."""

    def test_host_addresses_as_subjects(self):
        system = AccessControlSystem(
            n_managers=3, n_hosts=1,
            policy=AccessPolicy(check_quorum=2, expiry_bound=60.0),
            latency=FixedLatency(0.02), seed=1,
        )
        system.seed_grant(APP, "10.1.2.3")  # an IP, not a user name
        allowed = system.hosts[0].request_access(APP, "10.1.2.3")
        denied = system.hosts[0].request_access(APP, "10.9.9.9")
        system.run(until=10)
        assert allowed.value.allowed
        assert not denied.value.allowed


class TestPerApplicationPolicies:
    def test_host_applies_per_app_overrides(self):
        policy_strict = AccessPolicy(
            check_quorum=3, expiry_bound=60.0, max_attempts=1,
            query_timeout=1.0, cache_cleanup_interval=None,
        )
        policy_lenient = AccessPolicy(
            check_quorum=1, expiry_bound=60.0, max_attempts=1,
            exhausted_action=ExhaustedAction.ALLOW,
            query_timeout=1.0, cache_cleanup_interval=None,
        )
        system = AccessControlSystem(
            n_managers=3, n_hosts=1,
            applications=("strict-app", "lenient-app"),
            policy=policy_strict,
            connectivity=(connectivity := ScriptedConnectivity()),
            latency=FixedLatency(0.02), seed=2,
        )
        host = system.hosts[0]
        host.set_policy("lenient-app", policy_lenient)
        system.seed_grant("strict-app", "u")
        system.seed_grant("lenient-app", "u")
        connectivity.isolate("h0", system.manager_addrs)
        strict = host.request_access("strict-app", "u")
        lenient = host.request_access("lenient-app", "u")
        system.run(until=30)
        assert not strict.value.allowed  # exhausted -> deny
        assert lenient.value.allowed  # Figure 4 default-allow

    def test_manager_applies_per_app_policy_te(self):
        env = Environment()
        network = Network(env, latency=FixedLatency(0.02), tracer=Tracer(env))
        short = AccessPolicy(check_quorum=1, expiry_bound=10.0, clock_bound=1.0)
        long_ = AccessPolicy(check_quorum=1, expiry_bound=1000.0, clock_bound=1.0)
        manager = AccessControlManager("m0", short)
        manager.manage("short-app", ("m0",))
        manager.manage("long-app", ("m0",))
        manager.set_policy("long-app", long_)
        network.register(manager)
        host = AccessControlHost(
            "h0", short,
            managers={"short-app": ("m0",), "long-app": ("m0",)},
            clock=LocalClock(env),
        )
        host.set_policy("long-app", long_)
        network.register(host)
        for app in ("short-app", "long-app"):
            manager.bootstrap(
                app, [AclEntry("u", Right.USE, True, Version(1, ""))]
            )
        a = host.request_access("short-app", "u")
        b = host.request_access("long-app", "u")
        env.run(until=5)
        assert a.value.allowed and b.value.allowed
        limits = {
            app: host.cache_for(app).entries()[0].limit
            for app in ("short-app", "long-app")
        }
        assert limits["long-app"] > limits["short-app"] + 100


class TestSequentialStrategyEdges:
    def test_sequential_with_c_equal_m(self):
        system = AccessControlSystem(
            n_managers=3, n_hosts=1,
            policy=AccessPolicy(
                check_quorum=3, query_strategy=QueryStrategy.SEQUENTIAL,
                expiry_bound=60.0, max_attempts=1, query_timeout=1.0,
            ),
            latency=FixedLatency(0.02), seed=3,
        )
        system.seed_grant(APP, "u")
        process = system.hosts[0].request_access(APP, "u")
        system.run(until=10)
        assert process.value.allowed
        assert process.value.responses == 3

    def test_sequential_rotation_spreads_load(self):
        """Across attempts the starting manager rotates, so one slow
        manager does not absorb every first query."""
        system = AccessControlSystem(
            n_managers=3, n_hosts=1,
            policy=AccessPolicy(
                check_quorum=1, query_strategy=QueryStrategy.SEQUENTIAL,
                expiry_bound=0.5, max_attempts=1, query_timeout=1.0,
                cache_cleanup_interval=None,
            ),
            latency=FixedLatency(0.02), seed=4, clock_drift=False,
        )
        system.seed_grant(APP, "u")
        host = system.hosts[0]
        for _ in range(6):
            process = host.request_access(APP, "u")
            system.run(until=system.env.now + 1.0)  # > te: cache expired
        queries = {m.address: m.stats["queries"] for m in system.managers}
        assert all(count >= 1 for count in queries.values())


class TestWrapperEdges:
    class Crashy(Application):
        name = APP

        def handle_request(self, user, payload):
            if payload == "boom":
                raise RuntimeError("application bug")
            return "ok"

    def test_application_exception_becomes_error_response(self):
        """A bug in the wrapped application must not kill the host's
        serving loop; the client gets an explicit error response."""
        system = AccessControlSystem(
            n_managers=1, n_hosts=1,
            policy=AccessPolicy(check_quorum=1, expiry_bound=60.0),
            latency=FixedLatency(0.02), seed=5,
        )
        host = system.hosts[0]
        host.deploy(self.Crashy())
        system.seed_grant(APP, "u")
        from repro.core.client import UserClient

        client = UserClient("c0", "u")
        system.network.register(client)
        request = client.request(host.address, APP, "boom")
        system.run(until=10)
        assert not request.value.allowed
        assert "application error" in request.value.reason
        assert host.application_errors == 1
        # The host still serves healthy requests afterwards.
        healthy = client.request(host.address, APP, "fine")
        system.run(until=20)
        assert healthy.value.allowed and healthy.value.result == "ok"

    def test_empty_manager_set_from_static_config(self):
        """A host configured with no managers for an application denies
        at once: ``NO_MANAGERS``, no query round, nothing cached."""
        system = AccessControlSystem(
            n_managers=2, n_hosts=1,
            policy=AccessPolicy(check_quorum=1, expiry_bound=60.0,
                                max_attempts=1, query_timeout=0.5),
            latency=FixedLatency(0.02), seed=6,
        )
        host = system.hosts[0]
        assert host.manager_addrs_for("unconfigured") == ()
        process = host.request_access("unconfigured", "u")
        system.run(until=10)
        decision = process.value
        assert not decision.allowed
        assert decision.reason == DecisionReason.NO_MANAGERS
        assert (decision.attempts, decision.responses) == (0, 0)
        assert sum(manager.stats["queries"] for manager in system.managers) == 0
        assert host.cache_for("unconfigured").probe("u", Right.USE, host.clock.now()) is None


class TestJitteryLatency:
    def test_protocol_works_with_jittery_latency(self):
        system = AccessControlSystem(
            n_managers=3, n_hosts=1,
            policy=AccessPolicy(check_quorum=2, expiry_bound=60.0,
                                query_timeout=2.0),
            latency=ShiftedExponentialLatency(0.01, 0.1),
            seed=9,
        )
        system.seed_grant(APP, "u")
        process = system.hosts[0].request_access(APP, "u")
        system.run(until=20)
        assert process.value.allowed
        assert 0.02 <= process.value.latency <= 0.8


class TestZeroHostSystem:
    def test_manager_only_deployment(self):
        """Analysis-style systems with no hosts are valid (used by the
        PS validation experiment)."""
        system = AccessControlSystem(
            n_managers=4, n_hosts=0,
            policy=AccessPolicy(check_quorum=2, expiry_bound=60.0),
            seed=10,
        )
        handle = system.managers[0].add(APP, "u")
        system.run(until=20)
        assert handle.complete.triggered


class TestAtLeastOnceDelivery:
    def test_protocol_tolerates_duplication_and_loss(self):
        """At-least-once links: duplicated queries, updates, acks, and
        revoke notifications must all be idempotent, and random loss is
        absorbed by retries."""
        system = AccessControlSystem(
            n_managers=3, n_hosts=2,
            policy=AccessPolicy(
                check_quorum=2, expiry_bound=60.0, query_timeout=1.0,
                retry_backoff=0.5, update_retry_interval=1.0,
            ),
            latency=FixedLatency(0.03),
            loss_rate=0.1,
            duplicate_rate=0.25,
            seed=11,
        )
        system.seed_grant(APP, "alice")
        checks = [host.request_access(APP, "alice") for host in system.hosts]
        system.run(until=30)
        assert all(check.value.allowed for check in checks)
        handle = system.managers[0].revoke(APP, "alice")
        system.run(until=90)
        assert handle.complete.triggered
        for manager in system.managers:
            assert not manager.acl(APP).check("alice", Right.USE)
        post = [host.request_access(APP, "alice") for host in system.hosts]
        system.run(until=120)
        assert all(not p.value.allowed for p in post)
        assert system.network.messages_duplicated > 0

    def test_duplicate_rate_validation(self):
        import pytest as _pytest

        from repro.sim.network import Network as _Network

        with _pytest.raises(ValueError):
            _Network(Environment(), duplicate_rate=1.0)
