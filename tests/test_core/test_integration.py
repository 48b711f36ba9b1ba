"""End-to-end integration tests of the full protocol.

These exercise the properties the paper actually promises, across
multiple components at once: the Te revocation bound under partitions
and clock drift, quorum intersection during partial update propagation,
crash/recovery of both node classes, and combined failure scenarios.
"""

from __future__ import annotations

import pytest

from repro.core.host import DecisionReason
from repro.core.policy import AccessPolicy, DeltaMode
from repro.core.rights import Right
from repro.core.system import AccessControlSystem
from repro.sim.failures import schedule_crash, schedule_recovery
from repro.sim.network import FixedLatency
from repro.sim.partitions import PairEpochModel, ScriptedConnectivity

APP = "app"


def build(policy=None, seed=0, n_managers=3, n_hosts=1, **kwargs):
    connectivity = kwargs.pop("connectivity", None) or ScriptedConnectivity()
    system = AccessControlSystem(
        n_managers=n_managers,
        n_hosts=n_hosts,
        applications=(APP,),
        policy=policy
        or AccessPolicy(
            check_quorum=2,
            expiry_bound=60.0,
            max_attempts=2,
            query_timeout=1.0,
            retry_backoff=0.5,
        ),
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        seed=seed,
        **kwargs,
    )
    return system, connectivity


class TestRevocationBoundInvariant:
    """The paper's central guarantee, Section 3.2."""

    @pytest.mark.parametrize("clock_drift", [False, True])
    @pytest.mark.parametrize(
        "delta_mode", [DeltaMode.FULL_ROUND_TRIP, DeltaMode.HALF_ROUND_TRIP]
    )
    def test_no_access_after_te(self, clock_drift, delta_mode):
        te = 30.0
        policy = AccessPolicy(
            check_quorum=2,
            expiry_bound=te,
            clock_bound=1.1,
            max_attempts=1,
            delta_mode=delta_mode,
            query_timeout=1.0,
        )
        system, connectivity = build(
            policy=policy, clock_drift=clock_drift, seed=13
        )
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        warm = host.request_access(APP, "alice")
        system.run(until=5.0)
        assert warm.value.allowed

        connectivity.isolate(host.address, system.manager_addrs)
        revoke_at = system.env.now
        system.managers[0].revoke(APP, "alice")

        while system.env.now < revoke_at + 2 * te:
            started = system.env.now
            probe = host.request_access(APP, "alice")
            system.run(until=system.env.now + 0.5)
            if probe.triggered and probe.value.allowed:
                allowed_at = started + probe.value.latency
                assert allowed_at < revoke_at + te
            system.run(until=system.env.now + 0.5)

    def test_revoke_in_flight_grant_race(self):
        """A grant response already in flight when the revocation is
        issued must not extend access beyond Te."""
        te = 20.0
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=te, max_attempts=1, query_timeout=1.0
        )
        system, connectivity = build(policy=policy, seed=3)
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        # Kick off a check; revoke while responses are in flight.
        probe = host.request_access(APP, "alice")
        revoke_at = system.env.now
        system.managers[0].revoke(APP, "alice")
        system.run(until=revoke_at + 2 * te)
        if probe.value.allowed:
            # The grant could legally win the race, but the cache entry
            # it created must die within Te (flush or expiry).
            final = host.request_access(APP, "alice")
            system.run(until=system.env.now + 5.0)
            assert not final.value.allowed


class TestQuorumIntersection:
    def test_check_quorum_sees_partially_propagated_revoke(self):
        """A revoke that reached only its update quorum must still
        dominate every check quorum (the M - C + 1 intersection)."""
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, max_attempts=1, query_timeout=1.0
        )
        system, connectivity = build(policy=policy, n_managers=3)
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        # m2 never hears the revoke (partitioned from m0 and m1)...
        connectivity.set_down("m0", "m2")
        connectivity.set_down("m1", "m2")
        handle = system.managers[0].revoke(APP, "alice")
        system.run(until=5.0)
        assert handle.quorum.triggered  # m0 + m1 = update quorum of 2
        # ...but the host can reach all three managers.  Any check
        # quorum of 2 includes at least one of {m0, m1}.
        probe = host.request_access(APP, "alice")
        system.run(until=10.0)
        assert not probe.value.allowed
        assert probe.value.reason == DecisionReason.DENIED

    def test_add_visible_once_quorum_reached(self):
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, max_attempts=1, query_timeout=1.0
        )
        system, connectivity = build(policy=policy)
        host = system.hosts[0]
        connectivity.set_down("m0", "m2")
        connectivity.set_down("m1", "m2")
        handle = system.managers[0].add(APP, "newbie")
        system.run(until=5.0)
        assert handle.quorum.triggered
        probe = host.request_access(APP, "newbie")
        system.run(until=10.0)
        assert probe.value.allowed


class TestHostRecovery:
    def test_host_refills_cache_after_recovery(self):
        """Section 3.4: "recovery ... is very easy since ACL_cache(A)
        can simply be initialized to null and refilled"."""
        system, _connectivity = build()
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        warm = host.request_access(APP, "alice")
        system.run(until=5.0)
        assert warm.value.allowed
        schedule_crash(system.env, host, at=10.0)
        schedule_recovery(system.env, host, at=20.0)
        system.run(until=25.0)
        assert len(host.cache_for(APP)) == 0
        refill = host.request_access(APP, "alice")
        system.run(until=30.0)
        assert refill.value.allowed
        assert refill.value.reason == DecisionReason.VERIFIED

    def test_users_fail_over_to_other_hosts(self):
        """"If a host in Hosts(A) fails, potential users ... simply
        have to locate a new host."""
        system, _connectivity = build(n_hosts=2)
        system.seed_grant(APP, "alice")
        system.hosts[0].crash()
        probe = system.hosts[1].request_access(APP, "alice")
        system.run(until=10.0)
        assert probe.value.allowed


class TestManagerRecovery:
    def test_failed_manager_is_transparent_to_hosts(self):
        """"The failure of a manager is equally easy to handle since
        hosts ... can simply contact another manager."""
        system, _connectivity = build()
        system.seed_grant(APP, "alice")
        system.managers[2].crash()
        probe = system.hosts[0].request_access(APP, "alice")
        system.run(until=10.0)
        assert probe.value.allowed  # C=2 still satisfiable

    def test_revoke_while_granting_manager_down_still_bounded(self):
        """A failed manager's grant table is a 'logical partition': the
        expiration mechanism must still bound the revocation."""
        te = 15.0
        policy = AccessPolicy(
            check_quorum=1, expiry_bound=te, max_attempts=1, query_timeout=1.0
        )
        system, connectivity = build(policy=policy)
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        # Host only reaches m0; m0's grant table records the host.
        connectivity.set_down("h0", "m1")
        connectivity.set_down("h0", "m2")
        warm = host.request_access(APP, "alice")
        system.run(until=3.0)
        assert warm.value.allowed
        # m0 crashes, losing its grant table; m1 issues the revoke.
        system.managers[0].crash()
        revoke_at = system.env.now
        system.managers[1].revoke(APP, "alice")
        # Nobody can flush h0's cache (m0 down, m1/m2 unaware of h0).
        # The entry must still die within Te.
        system.run(until=revoke_at + te + 2.0)
        probe = host.request_access(APP, "alice")
        system.run(until=system.env.now + 5.0)
        assert not probe.value.allowed

    def test_recovered_manager_serves_fresh_state(self):
        policy = AccessPolicy(
            check_quorum=1, expiry_bound=60.0, max_attempts=2, query_timeout=1.0
        )
        system, connectivity = build(policy=policy)
        system.seed_grant(APP, "alice")
        system.managers[0].crash()
        system.managers[1].revoke(APP, "alice")
        system.run(until=5.0)
        system.managers[0].recover()
        system.run(until=10.0)
        assert not system.managers[0].recovering
        # Host that can only reach the recovered manager sees the revoke.
        connectivity.set_down("h0", "m1")
        connectivity.set_down("h0", "m2")
        probe = system.hosts[0].request_access(APP, "alice")
        system.run(until=20.0)
        assert not probe.value.allowed


class TestChaos:
    def test_long_run_under_churn_has_no_te_violations(self):
        """A randomized soak: epoch partitions + manager updates; the
        Te invariant must hold throughout."""
        te = 40.0
        policy = AccessPolicy(
            check_quorum=2,
            expiry_bound=te,
            clock_bound=1.1,
            max_attempts=2,
            query_timeout=1.0,
            retry_backoff=0.5,
        )
        system, _ = build(
            policy=policy,
            seed=99,
            n_hosts=3,
            connectivity=PairEpochModel(pi=0.2, mean_outage=30.0),
        )
        system.seed_grant(APP, "alice")
        revoked_at = {"t": None}

        def churn():
            yield system.env.timeout(50.0)
            revoked_at["t"] = system.env.now
            system.managers[1].revoke(APP, "alice")
            yield system.env.timeout(100.0)
            system.managers[2].add(APP, "alice")

        system.env.process(churn(), name="churn")
        violations = []

        def prober(host):
            while system.env.now < 300.0:
                started = system.env.now
                decision = yield host.request_access(APP, "alice")
                if decision.allowed and revoked_at["t"] is not None:
                    decided = started + decision.latency
                    # Legal if before revoke+Te or after the re-grant.
                    if revoked_at["t"] + te < decided < 150.0:
                        violations.append(decided)
                yield system.env.timeout(3.0)

        for host in system.hosts:
            system.env.process(prober(host), name=f"probe:{host.address}")
        system.run(until=320.0)
        assert violations == []


class TestLostRevocationAnomaly:
    """Regression for a real LWW anomaly found by seed-sweeping chaos
    runs: with pure Lamport counters, a manager that has not yet
    received an earlier committed grant could issue a revocation with a
    *lower* version, which then permanently lost the merge — a lost
    revocation.  Hybrid logical clocks (version counters dominated by
    physical milliseconds) fix it: a later-in-real-time operation
    always wins once clocks agree within skew."""

    def test_revoke_from_stale_manager_still_wins(self):
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=30.0, max_attempts=1,
            query_timeout=1.0, update_retry_interval=1.0,
        )
        system, connectivity = build(policy=policy, n_managers=3)
        # m2 is partitioned while m0 commits a grant (quorum m0+m1).
        connectivity.set_down("m0", "m2")
        connectivity.set_down("m1", "m2")
        grant = system.managers[0].add(APP, "victim")
        system.run(until=5.0)
        assert grant.quorum.triggered
        assert not system.managers[2].acl(APP).check("victim", Right.USE)

        # Much later, STALE m2 (which never saw the grant) revokes.
        system.run(until=60.0)
        connectivity.set_up("m0", "m2")
        connectivity.set_up("m1", "m2")
        revoke = system.managers[2].revoke(APP, "victim")
        system.run(until=90.0)
        assert revoke.complete.triggered
        assert grant.complete.triggered
        # The later revocation must win everywhere — with pure Lamport
        # counters m2's revoke carried a lower counter and lost.
        for manager in system.managers:
            assert not manager.acl(APP).check("victim", Right.USE), (
                manager.address
            )
        probe = system.hosts[0].request_access(APP, "victim")
        system.run(until=100.0)
        assert not probe.value.allowed

    def test_hlc_counter_dominates_physical_time(self):
        from repro.core.rights import hlc_counter

        assert hlc_counter(10.0, 0) == 10_000
        assert hlc_counter(10.0, 20_000) == 20_001  # lamport ahead
        assert hlc_counter(0.0, 0) == 1  # never zero


class TestFreezeStrategyBound:
    """The freeze strategy's version of the Te guarantee: grants issued
    before the freeze point live at most te = (Te - Ti)/b, so even a
    revocation that cannot disseminate (its issuer is the partitioned
    manager) is globally effective within Te."""

    def test_revoke_by_partitioned_manager_bounded_by_te(self):
        te_bound = 40.0
        policy = AccessPolicy(
            check_quorum=1,
            expiry_bound=te_bound,
            clock_bound=1.0,
            use_freeze=True,
            inaccessibility_period=10.0,
            ping_interval=2.0,
            max_attempts=1,
            query_timeout=1.0,
            cache_cleanup_interval=None,
        )
        system, connectivity = build(policy=policy, n_managers=3)
        host = system.hosts[0]
        system.seed_grant(APP, "alice")
        system.run(until=5.0)  # pings warm

        # t=10: m2 partitioned from its peers (hosts still reach all).
        connectivity.set_down("m2", "m0")
        connectivity.set_down("m2", "m1")
        system.run(until=10.0)
        # Host obtains a fresh grant from a not-yet-frozen manager.
        warm = host.request_access(APP, "alice")
        system.run(until=12.0)
        assert warm.value.allowed

        # t=15: the *partitioned* manager revokes; dissemination stalls.
        revoke_at = system.env.now + 3.0
        system.run(until=revoke_at)
        handle = system.managers[2].revoke(APP, "alice")

        last_allowed = None
        while system.env.now < revoke_at + 2 * te_bound:
            started = system.env.now
            probe = host.request_access(APP, "alice")
            system.run(until=system.env.now + 2.0)
            if probe.triggered and probe.value.allowed:
                last_allowed = started + probe.value.latency
        assert not handle.quorum.triggered  # freeze requires all acks
        assert last_allowed is not None
        assert last_allowed < revoke_at + te_bound
