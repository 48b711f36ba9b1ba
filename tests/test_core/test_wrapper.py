"""Tests for the Figure 1 access-control wrapper and clients."""

from __future__ import annotations

import random

import pytest

from repro.auth.identity import Authenticator, Principal
from repro.auth.keys import generate_keypair
from repro.core.policy import AccessPolicy
from repro.core.system import AccessControlSystem
from repro.core.wrapper import Application
from repro.core.client import UserClient
from repro.sim.engine import _COMPACT_FLOOR, Timeout
from repro.sim.network import FixedLatency

APP = "echo"


class EchoApp(Application):
    """Echoes payloads; counts what it saw (must only see authorized)."""

    name = APP

    def __init__(self):
        self.seen = []

    def handle_request(self, user, payload):
        self.seen.append((user, payload))
        return f"echo:{payload}"


def build(authenticated: bool = False, seed: int = 0, latency: float = 0.05):
    system = AccessControlSystem(
        n_managers=3,
        n_hosts=1,
        applications=(APP,),
        policy=AccessPolicy(
            check_quorum=2, expiry_bound=60.0, max_attempts=2, query_timeout=1.0
        ),
        latency=FixedLatency(latency),
        seed=seed,
    )
    host = system.hosts[0]
    app = EchoApp()
    host.deploy(app)
    auth = None
    if authenticated:
        auth = Authenticator()
        host.authenticator = auth
    return system, host, app, auth


class TestWrapper:
    def test_authorized_request_reaches_application(self):
        system, host, app, _ = build()
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        request = client.request(host.address, APP, "hello")
        system.run(until=10)
        assert request.value.allowed
        assert request.value.result == "echo:hello"
        assert app.seen == [("alice", "hello")]

    def test_unauthorized_request_never_reaches_application(self):
        system, host, app, _ = build()
        client = UserClient("c0", "mallory")
        system.network.register(client)
        request = client.request(host.address, APP, "sneak")
        system.run(until=10)
        assert not request.value.allowed
        assert app.seen == []

    def test_unknown_application_rejected(self):
        system, host, app, _ = build()
        system.register_application("ghost")
        system.seed_grant("ghost", "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        request = client.request(host.address, "ghost", "x")
        system.run(until=10)
        assert not request.value.allowed
        assert "no such application" in request.value.reason

    def test_duplicate_deploy_rejected(self):
        _system, host, _app, _ = build()
        with pytest.raises(ValueError):
            host.deploy(EchoApp())

    def test_wrapped_app_contains_no_access_control(self):
        """The transparency property: the application class has no
        reference to policies, caches, or managers."""
        import inspect

        source = inspect.getsource(EchoApp)
        for term in ("policy", "cache", "manager", "quorum"):
            assert term not in source.lower()


class TestAuthenticatedWrapper:
    def _principal(self, name, seed):
        return Principal(name, generate_keypair(bits=128, rng=random.Random(seed)))

    def test_signed_request_from_registered_user_served(self):
        system, host, app, auth = build(authenticated=True)
        alice = self._principal("alice", 1)
        auth.register(alice)
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice", principal=alice)
        system.network.register(client)
        request = client.request(host.address, APP, "hi")
        system.run(until=10)
        assert request.value.allowed
        assert app.seen == [("alice", "hi")]

    def test_unsigned_request_rejected_when_auth_required(self):
        system, host, app, auth = build(authenticated=True)
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")  # no principal -> unsigned
        system.network.register(client)
        request = client.request(host.address, APP, "hi")
        system.run(until=10)
        assert not request.value.allowed
        assert "unsigned" in request.value.reason
        assert app.seen == []

    def test_unregistered_signer_rejected(self):
        system, host, app, auth = build(authenticated=True)
        eve = self._principal("eve", 2)
        system.seed_grant(APP, "eve")
        client = UserClient("c0", "eve", principal=eve)
        system.network.register(client)
        request = client.request(host.address, APP, "hi")
        system.run(until=10)
        assert not request.value.allowed
        assert host.rejected_signatures == 1

    def test_signer_claiming_other_user_rejected(self):
        """bob signs a request whose user field says alice."""
        system, host, app, auth = build(authenticated=True)
        alice = self._principal("alice", 1)
        bob = self._principal("bob", 2)
        auth.register(alice)
        auth.register(bob)
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice", principal=bob)  # forged identity
        system.network.register(client)
        request = client.request(host.address, APP, "hi")
        system.run(until=10)
        assert not request.value.allowed
        assert app.seen == []


class CrashingApp(Application):
    name = APP

    def handle_request(self, user, payload):
        raise RuntimeError("boom")


class DeployAwareApp(Application):
    name = "aware"

    def __init__(self):
        self.deployed_on = None

    def on_deploy(self, host):
        self.deployed_on = host.address


class TestWrapperRobustness:
    def test_application_exception_becomes_error_response(self):
        system, host, _app, _ = build()
        host.applications[APP] = CrashingApp()  # swap the echo app out
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        request = client.request(host.address, APP, "x")
        system.run(until=10)
        assert not request.value.allowed
        assert "application error: RuntimeError: boom" in request.value.reason
        assert host.application_errors == 1

    def test_host_survives_application_exception(self):
        system, host, _app, _ = build()
        host.applications[APP] = CrashingApp()
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        client.request(host.address, APP, "first")
        system.run(until=10)
        second = client.request(host.address, APP, "second")
        system.run(until=20)
        assert second.value is not None  # serving loop still alive
        assert host.application_errors == 2

    def test_on_deploy_hook_receives_host(self):
        _system, host, _app, _ = build()
        aware = DeployAwareApp()
        host.deploy(aware)
        assert aware.deployed_on == host.address

    def test_deploy_returns_the_application(self):
        _system, host, _app, _ = build()
        aware = DeployAwareApp()
        assert host.deploy(aware) is aware

    def test_unknown_message_type_is_dropped_and_counted(self):
        system, host, app, _ = build()
        host.handle_message("c0", object())
        assert host.rejected_kinds == 1
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        request = client.request(host.address, APP, "x")
        system.run(until=10)
        assert request.value.result == "echo:x"  # the host still serves
        assert host.rejected_kinds == 1

    def test_denied_response_carries_protocol_reason(self):
        system, host, app, _ = build()
        client = UserClient("c0", "mallory")
        system.network.register(client)
        request = client.request(host.address, APP, "x")
        system.run(until=10)
        assert "access denied" in request.value.reason
        assert "denied" in request.value.reason

    def test_base_application_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Application().handle_request("alice", "x")


class TestClient:
    def test_timeout_when_host_unreachable(self):
        system, host, _app, _ = build()
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice", request_timeout=5.0)
        system.network.register(client)
        host.crash()
        request = client.request(host.address, APP, "x")
        system.run(until=20)
        assert request.value.timed_out
        assert not request.value.allowed

    def test_latency_measured(self):
        system, host, _app, _ = build()
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        request = client.request(host.address, APP, "x")
        system.run(until=10)
        # client->host + (query round trip) + host->client = 4 hops min.
        assert request.value.latency >= 0.2

    def test_client_crash_clears_pending(self):
        system, host, _app, _ = build()
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice")
        system.network.register(client)
        client.request(host.address, APP, "x")
        client.crash()
        assert len(client._pending) == 0


class TestClientWait:
    """The one-event wait: the process yields the reply event alone and
    the request timer's callback fails it on expiry."""

    def _client(self, timeout=5.0, latency=0.05):
        system, host, app, _ = build(latency=latency)
        system.seed_grant(APP, "alice")
        client = UserClient("c0", "alice", request_timeout=timeout)
        system.network.register(client)
        return system, host, app, client

    def test_lost_reply_times_out_at_exactly_the_request_timeout(self):
        system, host, app, client = self._client()
        # The request arrives and is served; the reply is lost.
        system.network.send = _drop_replies(system.network.send)
        request = client.request(host.address, APP, "x")
        system.run(until=20)
        assert app.seen == [("alice", "x")]
        result = request.value
        assert result.timed_out and not result.allowed and not result
        assert result.reason == "request timed out" and result.result is None
        assert result.latency == client.request_timeout
        assert len(client._pending) == 0

    def test_reply_after_the_timeout_is_ignored(self):
        system, host, app, client = self._client(timeout=0.1)  # < 4 hops of 0.05
        request = client.request(host.address, APP, "x")
        system.run(until=10)  # the late AppResponse is delivered in here
        assert request.value.timed_out
        assert request.value.latency == 0.1
        assert app.seen == [("alice", "x")]  # it was served; the reply came late
        assert len(client._pending) == 0
        client.request_timeout = 5.0
        follow_up = client.request(host.address, APP, "y")
        system.run(until=20)
        assert follow_up.value.result == "echo:y" and not follow_up.value.timed_out

    def test_reply_cancels_the_timer_and_leaves_no_callback_on_it(self):
        system, host, _app, client = self._client(timeout=50.0)
        env = system.env
        request = client.request(host.address, APP, "x")
        system.run(until=10)
        assert request.value.allowed and not request.value.timed_out
        timers = [
            event for when, _eid, event in env._queue
            if type(event) is Timeout and when == 50.0
        ]
        assert len(timers) == 1
        (timer,) = timers
        assert timer._cancelled and not timer._callbacks and timer._waiter is None
        dead = env.dead_pops
        system.run(until=49.0)
        assert env.dead_pops == dead  # still queued, not yet reached
        system.run(until=51.0)
        assert env.dead_pops == dead + 1  # popped dead: nothing ran for it

    def test_answered_invokes_leave_the_queue_bounded(self):
        # Every reply beats its 30 s timer, so each invoke leaves one dead
        # timer 30 s ahead of the clock; at zero latency all 10 000 land
        # at t=0.  Compaction keeps the queue at its live entries.
        system, host, _app, client = self._client(timeout=30.0, latency=0.0)
        env = system.env
        peak = 0

        def invoker():
            nonlocal peak
            for i in range(10_000):
                result = yield from client.invoke(host.address, APP, i)
                assert result.allowed and not result.timed_out
                peak = max(peak, len(env._queue))

        env.process(invoker())
        system.run(until=1.0)
        assert peak < 2 * _COMPACT_FLOOR
        assert env.dead_pops >= 10_000 - 2 * _COMPACT_FLOOR

    def test_overlapping_invokes_resolve_independently(self):
        system, host, app, client = self._client()
        slow = client.request(host.address, APP, "first")  # miss: 4 hops
        system.run(until=0.19)
        assert slow.is_alive
        lost = client.request(host.address, "ghost", "second")
        fast = client.request(host.address, APP, "third")
        system.run(until=10)
        assert slow.value.result == "echo:first" and slow.value.latency == pytest.approx(0.2)
        assert fast.value.result == "echo:third" and fast.value.latency == pytest.approx(0.1)
        assert "no such application" in lost.value.reason
        assert not any(r.value.timed_out for r in (slow, lost, fast))
        assert len(client._pending) == 0

    def test_crash_clears_pending_and_the_waiter_times_out(self):
        system, host, _app, client = self._client()
        request = client.request(host.address, APP, "x")
        system.run(until=0.01)
        client.crash()
        assert len(client._pending) == 0
        system.run(until=20)
        assert request.value.timed_out and request.value.latency == 5.0

    def test_admin_client_shares_the_idiom(self):
        from repro.core.admin import AdminClient

        system, _host, _app, _ = build()
        admin = AdminClient("a0", "root", request_timeout=3.0)
        system.network.register(admin)
        system.managers[0].crash()
        lost = admin.add_process(system.managers[0].address, APP, "carol")
        system.run(until=10)
        assert lost.value.timed_out and lost.value.latency == 3.0
        assert not lost.value.accepted and len(admin._pending) == 0


def _drop_replies(send):
    from repro.core.messages import AppResponse

    def filtered(src, dst, message):
        if not isinstance(message, AppResponse):
            send(src, dst, message)

    return filtered
