"""Tests for the host-side protocol (Figures 2, 3, 4)."""

from __future__ import annotations

from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.policy import (
    AccessPolicy,
    DeltaMode,
    ExhaustedAction,
    QueryStrategy,
)
from repro.core.rights import AclEntry, Right, Version
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import TraceKind, Tracer

APP = "app"


class Harness:
    """A host plus M managers on a deterministic network."""

    def __init__(
        self,
        policy: AccessPolicy,
        n_managers: int = 3,
        clock_rate: float = 1.0,
        latency: float = 0.05,
    ):
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=True)
        self.connectivity = ScriptedConnectivity()
        self.network = Network(
            self.env,
            connectivity=self.connectivity,
            latency=FixedLatency(latency),
            tracer=self.tracer,
        )
        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        self.managers = []
        for addr in self.manager_addrs:
            manager = AccessControlManager(addr, policy)
            manager.manage(APP, self.manager_addrs)
            self.network.register(manager)
            self.managers.append(manager)
        self.host = AccessControlHost(
            "h0",
            policy,
            managers={APP: self.manager_addrs},
            clock=LocalClock(self.env, rate=clock_rate),
        )
        self.network.register(self.host)

    def grant_everywhere(self, user: str, counter: int = 1):
        entry = AclEntry(user, Right.USE, True, Version(counter, "~seed"))
        for manager in self.managers:
            manager.bootstrap(APP, [entry])

    def check(self, user: str, run_for: float = 30.0):
        process = self.host.request_access(APP, user)
        self.env.run(until=self.env.now + run_for)
        return process.value


def policy(**overrides) -> AccessPolicy:
    defaults = dict(
        check_quorum=2,
        expiry_bound=100.0,
        clock_bound=1.0,
        query_timeout=1.0,
        retry_backoff=0.5,
        cache_cleanup_interval=None,
    )
    defaults.update(overrides)
    return AccessPolicy(**defaults)


class TestBasicDecisions:
    def test_granted_user_verified(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed and decision.reason == DecisionReason.VERIFIED
        assert decision.attempts == 1
        assert decision.responses >= 2

    def test_unknown_user_denied(self):
        harness = Harness(policy())
        decision = harness.check("mallory")
        assert not decision.allowed and decision.reason == DecisionReason.DENIED

    def test_second_access_hits_cache(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        harness.check("alice")
        decision = harness.check("alice")
        assert decision.reason == DecisionReason.CACHE
        assert decision.latency == 0.0
        assert harness.host.cache_for(APP).hits == 1

    def test_burst_of_warm_checks_all_hit_cache(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        harness.check("alice")
        processes = [harness.host.request_access(APP, "alice") for _ in range(1_000)]
        harness.env.run(until=harness.env.now + 1.0)
        assert all(p.value.reason == DecisionReason.CACHE for p in processes)
        assert harness.host.cache_for(APP).hits == 1_000

    def test_denials_not_cached(self):
        harness = Harness(policy())
        first = harness.check("mallory")
        second = harness.check("mallory")
        assert first.reason == second.reason == DecisionReason.DENIED
        assert second.attempts == 1  # had to re-verify

    def test_no_managers_configured(self):
        harness = Harness(policy())
        harness.host._static_managers = {}
        decision = harness.check("alice")
        assert not decision.allowed
        assert decision.reason == DecisionReason.NO_MANAGERS

    def test_manage_right_checked_separately(self):
        harness = Harness(policy())
        entry = AclEntry("boss", Right.MANAGE, True, Version(1, "~seed"))
        for manager in harness.managers:
            manager.bootstrap(APP, [entry])
        use_proc = harness.host.request_access(APP, "boss", Right.USE)
        manage_proc = harness.host.request_access(APP, "boss", Right.MANAGE)
        harness.env.run(until=30)
        assert not use_proc.value.allowed
        assert manage_proc.value.allowed


class TestExpiry:
    def test_cached_entry_expires_and_reverifies(self):
        harness = Harness(policy(expiry_bound=10.0))
        harness.grant_everywhere("alice")
        harness.check("alice")
        harness.env.run(until=harness.env.now + 15.0)  # past te
        decision = harness.check("alice")
        assert decision.reason == DecisionReason.VERIFIED
        assert harness.host.cache_for(APP).expirations == 1

    def test_expiry_respects_slow_clock(self):
        """A slow clock (rate 1/b) keeps entries longer in real time —
        up to Te, never beyond."""
        b = 1.25
        harness = Harness(
            policy(expiry_bound=40.0, clock_bound=b, max_attempts=1),
            clock_rate=1.0 / b,
        )
        harness.grant_everywhere("alice")
        harness.check("alice")
        harness.connectivity.isolate("h0", harness.manager_addrs)
        # te_local = 40/1.25 = 32 local units = 40 real seconds at rate 0.8.
        harness.env.run(until=35.0)  # still within the real-time window
        alive = harness.host.request_access(APP, "alice")
        harness.env.run(until=36.0)
        assert alive.value.reason == DecisionReason.CACHE
        harness.env.run(until=45.0)  # now past Te
        process = harness.host.request_access(APP, "alice")
        harness.env.run(until=75.0)
        assert not process.value.allowed

    def test_fast_clock_expires_early_but_safely(self):
        harness = Harness(policy(expiry_bound=40.0, clock_bound=1.0), clock_rate=1.0)
        harness.grant_everywhere("alice")
        harness.check("alice")
        harness.env.run(until=41.0)
        hit = harness.host.cache_for(APP).probe(
            "alice", Right.USE, harness.host.clock.now()
        )
        assert hit is None

    def test_half_round_trip_delta_gives_later_expiry(self):
        harness_full = Harness(policy(delta_mode=DeltaMode.FULL_ROUND_TRIP))
        harness_half = Harness(policy(delta_mode=DeltaMode.HALF_ROUND_TRIP))
        for harness in (harness_full, harness_half):
            harness.grant_everywhere("alice")
            harness.check("alice")
        limit_full = harness_full.host.cache_for(APP).entries()[0].limit
        limit_half = harness_half.host.cache_for(APP).entries()[0].limit
        assert limit_half > limit_full

    def test_cleanup_loop_purges(self):
        harness = Harness(policy(expiry_bound=5.0, cache_cleanup_interval=3.0))
        harness.grant_everywhere("alice")
        harness.check("alice", run_for=2.0)
        assert len(harness.host.cache_for(APP)) == 1
        harness.env.run(until=harness.env.now + 10.0)
        assert len(harness.host.cache_for(APP)) == 0


class TestQuorumCombination:
    def test_needs_check_quorum_responses(self):
        """With C=3 of 3 and one manager unreachable, checks fail."""
        harness = Harness(policy(check_quorum=3, max_attempts=1))
        harness.grant_everywhere("alice")
        harness.connectivity.set_down("h0", "m2")
        decision = harness.check("alice")
        assert not decision.allowed
        assert decision.reason == DecisionReason.EXHAUSTED

    def test_newer_revocation_beats_stale_grant(self):
        """One manager missed the revocation; version comparison saves
        the check quorum."""
        harness = Harness(policy(check_quorum=2))
        harness.grant_everywhere("alice", counter=1)
        # Two managers know about the revocation (update quorum for C=2).
        tombstone = AclEntry("alice", Right.USE, False, Version(2, "m0"))
        harness.managers[0].bootstrap(APP, [tombstone])
        harness.managers[1].bootstrap(APP, [tombstone])
        decision = harness.check("alice")
        assert not decision.allowed
        assert decision.reason == DecisionReason.DENIED

    def test_newer_grant_beats_stale_denial(self):
        """Conversely, a fresh Add wins over managers that missed it."""
        harness = Harness(policy(check_quorum=2))
        fresh = AclEntry("bob", Right.USE, True, Version(5, "m1"))
        harness.managers[0].bootstrap(APP, [fresh])
        harness.managers[1].bootstrap(APP, [fresh])
        decision = harness.check("bob")
        assert decision.allowed

    def test_sequential_strategy_collects_quorum(self):
        harness = Harness(policy(query_strategy=QueryStrategy.SEQUENTIAL))
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed
        assert decision.responses == 2  # stopped at C, not all M

    def test_sequential_skips_unreachable_manager(self):
        harness = Harness(
            policy(query_strategy=QueryStrategy.SEQUENTIAL, check_quorum=2)
        )
        harness.grant_everywhere("alice")
        harness.connectivity.set_down("h0", "m0")
        decision = harness.check("alice")
        assert decision.allowed  # m1 and m2 supplied the quorum

    def test_parallel_queries_all_managers(self):
        harness = Harness(
            policy(check_quorum=1, query_strategy=QueryStrategy.PARALLEL)
        )
        harness.grant_everywhere("alice")
        harness.check("alice")
        assert harness.tracer.counts().get(TraceKind.QUERY_SENT, 0) == 3


class TestRetriesAndFigure4:
    def test_unbounded_retries_survive_partition(self):
        harness = Harness(policy(max_attempts=None))
        harness.grant_everywhere("alice")
        harness.connectivity.isolate("h0", harness.manager_addrs)
        process = harness.host.request_access(APP, "alice")
        harness.env.run(until=20.0)
        assert process.is_alive  # still retrying
        harness.connectivity.reconnect("h0", harness.manager_addrs)
        harness.env.run(until=40.0)
        assert process.value.allowed

    def test_figure4_default_allow(self):
        harness = Harness(
            policy(max_attempts=3, exhausted_action=ExhaustedAction.ALLOW)
        )
        harness.grant_everywhere("alice")
        harness.connectivity.isolate("h0", harness.manager_addrs)
        decision = harness.check("alice")
        assert decision.allowed
        assert decision.reason == DecisionReason.DEFAULT_ALLOW
        assert decision.attempts == 3

    def test_exhausted_deny(self):
        harness = Harness(
            policy(max_attempts=2, exhausted_action=ExhaustedAction.DENY)
        )
        harness.connectivity.isolate("h0", harness.manager_addrs)
        decision = harness.check("alice")
        assert not decision.allowed
        assert decision.reason == DecisionReason.EXHAUSTED
        assert decision.attempts == 2

    def test_default_allow_not_cached(self):
        """A Figure 4 allow is not a verified right; it must not seed
        the cache."""
        harness = Harness(
            policy(max_attempts=1, exhausted_action=ExhaustedAction.ALLOW)
        )
        harness.connectivity.isolate("h0", harness.manager_addrs)
        harness.check("alice")
        assert len(harness.host.cache_for(APP)) == 0


class TestLateResponses:
    def test_response_after_timeout_discarded(self):
        """Figure 3's timer: responses arriving after the round's
        timeout must be ignored (stale te would break the bound)."""
        harness = Harness(
            policy(
                max_attempts=1,
                query_timeout=0.06,
                query_strategy=QueryStrategy.PARALLEL,
            ),
            latency=0.05,
        )
        harness.grant_everywhere("alice")
        # Round trip is 0.1 > timeout 0.06: every response arrives late.
        decision = harness.check("alice")
        assert not decision.allowed
        assert len(harness.host.cache_for(APP)) == 0
        assert not harness.host._pending_queries._pending  # table cleaned up


class TestRevocationNotification:
    def test_revoke_notify_flushes_cache_and_acks(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        harness.check("alice")
        assert len(harness.host.cache_for(APP)) == 1
        harness.managers[0].revoke(APP, "alice")
        harness.env.run(until=harness.env.now + 10.0)
        assert len(harness.host.cache_for(APP)) == 0
        assert harness.tracer.counts().get(TraceKind.CACHE_FLUSHED, 0) >= 1
        decision = harness.check("alice")
        assert not decision.allowed


class TestHostCrash:
    def test_crash_clears_cache_and_recovery_refills(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        harness.check("alice")
        harness.host.crash()
        assert len(harness.host.cache_for(APP)) == 0
        harness.host.recover()
        decision = harness.check("alice")
        assert decision.allowed and decision.reason == DecisionReason.VERIFIED


class TestManagerResolution:
    def test_unknown_application_denied(self):
        harness = Harness(policy())
        process = harness.host.request_access("ghost-app", "alice")
        harness.env.run(until=30.0)
        assert process.value.reason == DecisionReason.NO_MANAGERS


class TestStats:
    def test_counters_update(self):
        harness = Harness(policy())
        harness.grant_everywhere("alice")
        harness.check("alice")
        harness.check("alice")
        harness.check("mallory")
        assert harness.host.stats["checks"] == 3
        assert harness.host.stats["allowed"] == 2
        assert harness.host.stats["denied"] == 1
