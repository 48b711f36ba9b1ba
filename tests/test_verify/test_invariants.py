"""Unit tests for the online invariant oracles.

Each oracle is exercised twice: once on protocol-conformant traffic
(must stay silent) and once on a hand-published record stream encoding
the specific violation it exists to catch.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheEntry
from repro.core.policy import AccessPolicy
from repro.core.rights import AclEntry, Right, Version
from repro.core.system import AccessControlSystem
from repro.sim.trace import TraceKind
from repro.verify import InvariantChecker, InvariantViolation, checking_enabled

APP = "app"


def make_system(**kwargs) -> AccessControlSystem:
    kwargs.setdefault("n_managers", 3)
    kwargs.setdefault("n_hosts", 2)
    kwargs.setdefault("applications", (APP,))
    kwargs.setdefault("policy", AccessPolicy(check_quorum=2, expiry_bound=60.0))
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("check_invariants", False)
    return AccessControlSystem(**kwargs)


class TestCheckerWiring:
    def test_attach_returns_checker_with_all_oracles(self):
        system = make_system()
        checker = system.attach_invariant_checker()
        assert system.checker is checker
        names = {inv.name for inv in checker.invariants}
        assert names == {
            "te_bound",
            "freeze_window",
            "quorum_intersection",
            "cache_expiry",
            "convergence",
        }

    def test_constructor_flag_attaches(self):
        system = make_system(check_invariants=True)
        assert isinstance(system.checker, InvariantChecker)

    def test_default_off(self):
        assert make_system().checker is None

    def test_clean_protocol_run_stays_silent(self):
        system = make_system(check_invariants=True)
        system.seed_grant(APP, "alice")
        system.hosts[0].request_access(APP, "alice")
        system.run(until=120.0)
        assert not system.checker.violations
        assert system.checker.finalize() == []

    def test_checking_enabled_env_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not checking_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert checking_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "off")
        assert not checking_enabled()

    def test_env_flag_attaches_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        system = AccessControlSystem(
            n_managers=3, n_hosts=1, applications=(APP,), seed=0
        )
        assert isinstance(system.checker, InvariantChecker)


class TestCacheExpiryOracle:
    def test_expired_cache_hit_raises(self):
        system = make_system()
        system.attach_invariant_checker()
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.CACHE_HIT,
                "h0",
                application=APP,
                user="alice",
                limit=10.0,
                now_local=25.0,
            )
        violation = excinfo.value
        assert violation.invariant == "cache_expiry"
        assert violation.details["limit"] == 10.0
        assert violation.trace, "violation must carry the offending slice"
        assert violation.trace[-1]["kind"] == TraceKind.CACHE_HIT

    def test_live_cache_hit_is_fine(self):
        system = make_system()
        system.attach_invariant_checker()
        system.tracer.publish(
            TraceKind.CACHE_HIT,
            "h0",
            application=APP,
            user="alice",
            limit=30.0,
            now_local=25.0,
        )
        assert not system.checker.violations


class TestTeBoundStampOracle:
    def test_missing_delta_subtraction_detected(self):
        system = make_system()
        system.attach_invariant_checker()
        # send_local=100, round trip took 2 local units, te=50:
        # Figure 3 requires limit <= 100 + 50; stamping now+te gives 152.
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.CACHE_STORED,
                "h0",
                application=APP,
                user="alice",
                right="use",
                limit=152.0,
                send_local=100.0,
                now_local=102.0,
                te=50.0,
            )
        assert excinfo.value.invariant == "te_bound"
        assert "delta" in excinfo.value.message

    def test_conformant_stamp_accepted(self):
        system = make_system()
        system.attach_invariant_checker()
        system.tracer.publish(
            TraceKind.CACHE_STORED,
            "h0",
            application=APP,
            user="alice",
            right="use",
            limit=150.0,
            send_local=100.0,
            now_local=102.0,
            te=50.0,
        )
        assert not system.checker.violations

    def test_te_above_policy_budget_detected(self):
        system = make_system()
        system.attach_invariant_checker()
        policy = system.policy
        too_much = policy.te_local * 2.0
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.CACHE_STORED,
                "h0",
                application=APP,
                user="alice",
                right="use",
                limit=0.0,
                send_local=0.0,
                now_local=0.0,
                te=too_much,
            )
        assert excinfo.value.invariant == "te_bound"


class TestTeBoundSemanticOracle:
    def _publish_revocation(self, system, at_quorum: float):
        system.tracer.publish(
            TraceKind.GRANT_SEEDED, "system",
            application=APP, user="alice", right="use",
        )
        system.tracer.publish(
            TraceKind.UPDATE_ISSUED, "m0",
            application=APP, user="alice", right="use",
            grant=False, update_id="m0:1", version=(2, "m0"),
        )
        system.tracer.publish(
            TraceKind.UPDATE_QUORUM_REACHED, "m0",
            update_id="m0:1", application=APP,
            elapsed=at_quorum, acks=2, grant=False,
        )

    def test_access_long_after_revocation_quorum_raises(self):
        system = make_system()
        system.attach_invariant_checker()
        self._publish_revocation(system, at_quorum=0.0)
        # Te=60 and quorum was reached at t=0; jump far past the bound.
        system.run(until=200.0)
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.ACCESS_ALLOWED, "h0",
                application=APP, user="alice", reason="cache",
                attempts=0, responses=0, latency=0.0,
            )
        violation = excinfo.value
        assert violation.invariant == "te_bound"
        assert violation.details["overshoot"] > 0

    @pytest.mark.parametrize("user", ["u²", "u٣", "u１", "u01", "u-1"])
    def test_bulk_seed_baseline_covers_only_canonical_ascii_names(self, user):
        # One record seeds u0..u9; "u٣" is not u3 and "u²" must be a
        # violation report, not a ValueError out of the oracle.
        system = make_system()
        system.attach_invariant_checker()
        system.tracer.publish(
            TraceKind.GRANT_SEEDED, "system",
            application=APP, user_prefix="u", seeded_below=10, right="use",
        )
        system.tracer.publish(
            TraceKind.ACCESS_ALLOWED, "h0",
            application=APP, user="u3", reason="verified",
            attempts=1, responses=2, latency=0.0,
        )
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.ACCESS_ALLOWED, "h0",
                application=APP, user=user, reason="verified",
                attempts=1, responses=2, latency=0.0,
            )
        assert excinfo.value.invariant == "te_bound"
        assert "never" in excinfo.value.message

    def test_access_within_grace_window_is_fine(self):
        system = make_system()
        system.attach_invariant_checker()
        self._publish_revocation(system, at_quorum=0.0)
        system.run(until=30.0)  # still inside Te=60
        system.tracer.publish(
            TraceKind.ACCESS_ALLOWED, "h0",
            application=APP, user="alice", reason="cache",
            attempts=0, responses=0, latency=0.0,
        )
        assert not system.checker.violations

    def test_default_allow_is_exempt(self):
        system = make_system()
        system.attach_invariant_checker()
        self._publish_revocation(system, at_quorum=0.0)
        system.run(until=200.0)
        system.tracer.publish(
            TraceKind.ACCESS_DEFAULT_ALLOWED, "h0",
            application=APP, user="alice", reason="default_allow",
            attempts=2, responses=0, latency=0.0,
        )
        assert not system.checker.violations

    def test_regrant_clears_the_bound(self):
        system = make_system()
        system.attach_invariant_checker()
        self._publish_revocation(system, at_quorum=0.0)
        system.tracer.publish(
            TraceKind.UPDATE_ISSUED, "m1",
            application=APP, user="alice", right="use",
            grant=True, update_id="m1:1", version=(3, "m1"),
        )
        system.run(until=500.0)
        system.tracer.publish(
            TraceKind.ACCESS_ALLOWED, "h0",
            application=APP, user="alice", reason="verified",
            attempts=1, responses=2, latency=0.1,
        )
        assert not system.checker.violations

    def test_never_granted_user_allowed_raises(self):
        system = make_system()
        system.attach_invariant_checker()
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.ACCESS_ALLOWED, "h0",
                application=APP, user="mallory", reason="verified",
                attempts=1, responses=2, latency=0.1,
            )
        assert "never" in excinfo.value.message


class TestQuorumIntersectionOracle:
    def test_short_update_quorum_raises(self):
        system = make_system()  # M=3, C=2 -> update quorum 2
        system.attach_invariant_checker()
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.UPDATE_QUORUM_REACHED, "m0",
                update_id="m0:1", application=APP,
                elapsed=1.0, acks=1, grant=False,
            )
        assert excinfo.value.invariant == "quorum_intersection"

    def test_short_check_quorum_raises(self):
        system = make_system()
        system.attach_invariant_checker()
        # Grant first so the Te-bound oracle has nothing to object to.
        system.seed_grant(APP, "alice")
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.ACCESS_ALLOWED, "h0",
                application=APP, user="alice", reason="verified",
                attempts=1, responses=1, latency=0.1,
            )
        assert excinfo.value.invariant == "quorum_intersection"

    def test_full_quorums_accepted(self):
        system = make_system()
        system.attach_invariant_checker()
        system.tracer.publish(
            TraceKind.UPDATE_QUORUM_REACHED, "m0",
            update_id="m0:1", application=APP,
            elapsed=1.0, acks=2, grant=True,
        )
        violations = [
            v for v in system.checker.violations
            if v.invariant == "quorum_intersection"
        ]
        assert violations == []


class TestFreezeWindowOracle:
    def test_double_freeze_transition_raises(self):
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, use_freeze=True,
            inaccessibility_period=15.0,
        )
        system = make_system(policy=policy)
        system.attach_invariant_checker()
        system.tracer.publish(
            TraceKind.MANAGER_FROZEN, "m0", application=APP
        )
        with pytest.raises(InvariantViolation) as excinfo:
            system.tracer.publish(
                TraceKind.MANAGER_FROZEN, "m0", application=APP
            )
        assert excinfo.value.invariant == "freeze_window"

    def test_freeze_unfreeze_cycle_is_fine(self):
        policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, use_freeze=True,
            inaccessibility_period=15.0,
        )
        system = make_system(policy=policy)
        system.attach_invariant_checker()
        for kind in (
            TraceKind.MANAGER_FROZEN,
            TraceKind.MANAGER_UNFROZEN,
            TraceKind.MANAGER_FROZEN,
        ):
            system.tracer.publish(kind, "m0", application=APP)
        assert not system.checker.violations


class TestConvergenceOracle:
    def test_diverged_manager_acls_reported(self):
        system = make_system()
        checker = system.attach_invariant_checker(raise_on_violation=False)
        system.seed_grant(APP, "alice")
        system.run(until=50.0)
        # Tamper with one replica out-of-protocol.
        system.managers[2].acl(APP).apply(
            AclEntry(
                user="alice", right=Right.USE, granted=False,
                version=Version(99, "m2"),
            )
        )
        checker.finalize()
        assert any(v.invariant == "convergence" for v in checker.violations)

    @pytest.mark.parametrize("holder", [0, 2])
    def test_entry_on_one_replica_only_reported(self, holder):
        """The reference (m0) or another replica holds a key the other lacks."""
        system = make_system()
        checker = system.attach_invariant_checker(raise_on_violation=False)
        system.run(until=10.0)
        system.managers[holder].acl(APP).apply(
            AclEntry(user="carol", right=Right.USE, granted=True, version=Version(7, "m0"))
        )
        checker.finalize()
        keys = [v.details["keys"] for v in checker.violations if v.invariant == "convergence"]
        # Against the reference, m1 and m2 both lack it; else only m2 has it.
        assert keys == [[str(("carol", Right.USE))]] * (2 if holder == 0 else 1)

    def test_stale_live_cache_entry_reported(self):
        system = make_system()
        checker = system.attach_invariant_checker(raise_on_violation=False)
        system.run(until=10.0)
        host = system.hosts[0]
        cache = host.cache_for(APP)
        cache.store(
            CacheEntry(
                user="mallory", right=Right.USE,
                limit=host.clock.now() + 1_000.0,
                version=Version(1, "m0"),
            )
        )
        checker.finalize()
        assert any(v.invariant == "convergence" for v in checker.violations)

    def test_converged_state_is_clean(self):
        system = make_system()
        checker = system.attach_invariant_checker(raise_on_violation=False)
        system.seed_grant(APP, "alice")
        system.managers[0].revoke(APP, "bob", Right.USE)
        system.run(until=100.0)
        checker.finalize()
        assert checker.violations == []


class TestViolationStructure:
    def test_as_dict_is_json_friendly(self):
        import json

        system = make_system()
        checker = system.attach_invariant_checker(raise_on_violation=False)
        system.tracer.publish(
            TraceKind.CACHE_HIT, "h0",
            application=APP, user="alice", limit=0.0, now_local=9.0,
        )
        assert checker.violations
        payload = checker.violations[0].as_dict()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["invariant"] == "cache_expiry"
        assert round_tripped["trace"][-1]["data"]["user"] == "alice"
