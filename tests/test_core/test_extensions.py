"""Tests for the optional protocol extensions: refresh-ahead caching,
negative caching, and Byzantine-manager tolerance (footnote 2)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.auth.identity import Authenticator, Principal, SignedMessage
from repro.auth.keys import generate_keypair
from repro.auth.signatures import Signature, Tag, check_tag, key_fingerprint, make_tag
from repro.core import host as host_module
from repro.core.byzantine import (
    DENY_ALL,
    FLIP,
    GRANT_ALL,
    LyingManager,
    required_quorum,
)
from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.messages import QueryRequest
from repro.core.policy import AccessPolicy, ExhaustedAction, QueryStrategy
from repro.core.rights import AclEntry, Right, Version
from repro.protocols import query as query_module
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import TraceKind, Tracer

APP = "app"


class ExtensionHarness:
    """Hosts + managers with optional liars and signatures."""

    def __init__(
        self,
        policy: AccessPolicy,
        n_managers: int = 3,
        liars: int = 0,
        lie_mode: str = GRANT_ALL,
        signed: bool = False,
        key_bits: int = 128,
    ):
        self.env = Environment()
        self.tracer = Tracer(self.env, keep_log=True)
        self.connectivity = ScriptedConnectivity()
        self.network = Network(
            self.env,
            connectivity=self.connectivity,
            latency=FixedLatency(0.05),
            tracer=self.tracer,
        )
        self.manager_addrs = tuple(f"m{i}" for i in range(n_managers))
        authenticator = Authenticator() if signed else None
        self.managers = []
        for index, addr in enumerate(self.manager_addrs):
            principal = None
            if signed:
                principal = Principal(
                    addr, generate_keypair(bits=key_bits, rng=random.Random(index))
                )
                authenticator.register(principal)
            # The *last* `liars` managers lie.
            if index >= n_managers - liars:
                manager = LyingManager(
                    addr, policy, mode=lie_mode, principal=principal
                )
            else:
                manager = AccessControlManager(addr, policy, principal=principal)
            manager.manage(APP, self.manager_addrs)
            self.network.register(manager)
            self.managers.append(manager)
        self.host = AccessControlHost(
            "h0",
            policy,
            managers={APP: self.manager_addrs},
            clock=LocalClock(self.env),
            manager_authenticator=authenticator,
        )
        self.network.register(self.host)

    def grant_everywhere(self, user: str, counter: int = 1):
        entry = AclEntry(user, Right.USE, True, Version(counter, ""))
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
        max_attempts=2,
        cache_cleanup_interval=None,
    )
    defaults.update(overrides)
    return AccessPolicy(**defaults)


def fanout_policy(**overrides) -> AccessPolicy:
    """For the tests below whose subject is the fan-out to all ``M``
    managers: which liar gets asked, who answers late, who is offered a
    key."""
    return policy(query_strategy=QueryStrategy.PARALLEL, **overrides)


class TestRefreshAhead:
    def test_entry_refreshed_before_expiry(self):
        harness = ExtensionHarness(
            policy(
                expiry_bound=20.0,
                refresh_ahead_fraction=0.5,
                refresh_check_interval=2.0,
            )
        )
        harness.grant_everywhere("alice")
        first = harness.check("alice", run_for=5.0)
        assert first.reason == DecisionReason.VERIFIED
        # Ride past several expiry periods: the refresher keeps the
        # entry alive, so every user-facing access is a cache hit.
        for _ in range(5):
            harness.env.run(until=harness.env.now + 15.0)
            probe = harness.check("alice", run_for=2.0)
            assert probe.reason == DecisionReason.CACHE, probe
        assert harness.host.stats["refreshes"] >= 4

    def test_refresh_respects_revocation(self):
        """Refresh-ahead must not resurrect a revoked right."""
        harness = ExtensionHarness(
            policy(
                expiry_bound=20.0,
                refresh_ahead_fraction=0.5,
                refresh_check_interval=2.0,
            )
        )
        harness.grant_everywhere("alice")
        harness.check("alice", run_for=5.0)
        harness.managers[0].revoke(APP, "alice")
        harness.env.run(until=harness.env.now + 40.0)
        probe = harness.check("alice", run_for=5.0)
        assert not probe.allowed

    def test_no_refresh_without_opt_in(self):
        harness = ExtensionHarness(policy(expiry_bound=20.0))
        harness.grant_everywhere("alice")
        harness.check("alice", run_for=5.0)
        harness.env.run(until=harness.env.now + 60.0)
        assert harness.host.stats["refreshes"] == 0


class TestNegativeCache:
    def test_denial_served_from_cache(self):
        harness = ExtensionHarness(policy(deny_cache_ttl=30.0))
        first = harness.check("mallory")
        assert first.reason == DecisionReason.DENIED
        second = harness.check("mallory", run_for=5.0)
        assert second.reason == DecisionReason.DENY_CACHED
        assert second.latency == 0.0
        assert harness.host.stats["deny_cache_hits"] == 1

    def test_denial_expires_after_ttl(self):
        harness = ExtensionHarness(policy(deny_cache_ttl=10.0))
        harness.check("mallory")
        harness.env.run(until=harness.env.now + 15.0)
        probe = harness.check("mallory")
        assert probe.reason == DecisionReason.DENIED  # re-verified

    def test_add_visible_after_ttl_at_most(self):
        harness = ExtensionHarness(policy(deny_cache_ttl=10.0))
        harness.check("newbie", run_for=2.0)  # caches the denial at ~t=0
        harness.managers[0].add(APP, "newbie")
        harness.env.run(until=harness.env.now + 2.0)
        early = harness.check("newbie", run_for=2.0)  # ~t=4: still cached
        assert early.reason == DecisionReason.DENY_CACHED  # stale denial
        harness.env.run(until=harness.env.now + 10.0)  # past the TTL
        late = harness.check("newbie", run_for=5.0)
        assert late.allowed

    def test_grant_clears_negative_entry(self):
        harness = ExtensionHarness(policy(deny_cache_ttl=1000.0))
        harness.check("alice")  # denial cached with a long TTL
        harness.grant_everywhere("alice", counter=5)
        harness.env.run(until=harness.env.now + 1100.0)
        verified = harness.check("alice")
        assert verified.allowed
        # A subsequent denial path must not resurface the stale entry.
        host = harness.host
        assert host._deny_key(APP, "alice", Right.USE) not in host._deny_cache

    def test_query_load_shed(self):
        shed = ExtensionHarness(policy(deny_cache_ttl=1000.0))
        naive = ExtensionHarness(policy())
        for harness in (shed, naive):
            for _ in range(5):
                harness.check("mallory", run_for=5.0)
        shed_queries = shed.tracer.count(TraceKind.QUERY_SENT)
        naive_queries = naive.tracer.count(TraceKind.QUERY_SENT)
        assert shed_queries < naive_queries / 2


class TestByzantineTolerance:
    def test_required_quorum(self):
        assert required_quorum(0) == 1
        assert required_quorum(1) == 3
        assert required_quorum(2) == 5
        with pytest.raises(ValueError):
            required_quorum(-1)

    def test_policy_requires_large_enough_quorum(self):
        with pytest.raises(ValueError):
            AccessPolicy(check_quorum=1, byzantine_f=1)

    def test_naive_host_believes_the_lie(self):
        """Without Byzantine vouching, one liar's inflated version wins
        — demonstrating the attack."""
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, max_attempts=1), n_managers=3, liars=1
        )
        decision = harness.check("revoked-user")  # never granted
        assert decision.allowed  # the fabricated grant won

    def test_f1_vouching_defeats_one_liar(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=4,
            liars=1,
        )
        decision = harness.check("revoked-user")
        assert not decision.allowed  # lie has only one voucher

    def test_f1_vouching_still_grants_legitimate_users(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=4,
            liars=1,
        )
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed
        assert decision.reason == DecisionReason.VERIFIED

    def test_censoring_liar_cannot_deny_alone(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=4,
            liars=1,
            lie_mode=DENY_ALL,
        )
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed

    def test_flip_mode_defeated(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=4,
            liars=1,
            lie_mode=FLIP,
        )
        harness.grant_everywhere("alice")
        assert harness.check("alice").allowed
        assert not harness.check("stranger").allowed

    def test_independent_liars_do_not_vouch_for_each_other(self):
        """Two liars that do not coordinate produce distinct fabricated
        versions, so even f=1 survives them."""
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=5,
            liars=2,
        )
        decision = harness.check("revoked-user")
        assert not decision.allowed

    def test_colluding_liars_defeat_f1_but_not_f2(self):
        def make(f, c, m):
            harness = ExtensionHarness(
                fanout_policy(check_quorum=c, byzantine_f=f, max_attempts=1),
                n_managers=m,
                liars=2,
            )
            for manager in harness.managers:
                if isinstance(manager, LyingManager):
                    manager.collude_as = "evil-cartel"
            return harness

        beaten = make(f=1, c=3, m=5)
        decision = beaten.check("revoked-user")
        assert decision.allowed  # the cartel forges f+1 = 2 vouchers

        defended = make(f=2, c=5, m=7)
        decision = defended.check("revoked-user")
        assert not decision.allowed  # needs 3 vouchers, cartel has 2

    def test_lying_manager_counts_its_lies(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), n_managers=3, liars=1
        )
        harness.check("ghost")
        liar = harness.managers[-1]
        assert isinstance(liar, LyingManager)
        assert liar.lies_told >= 1

    def test_invalid_lie_mode_rejected(self):
        with pytest.raises(ValueError):
            LyingManager("mX", fanout_policy(), mode="gaslight")


class TestSignedResponses:
    def test_signed_responses_verified(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), signed=True
        )
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed
        assert harness.host.rejected_manager_signatures == 0

    def test_unsigned_response_rejected_when_signatures_required(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), signed=True
        )
        # Sabotage one manager: strip its signing identity.
        harness.managers[0].principal = None
        harness.grant_everywhere("alice")
        decision = harness.check("alice")
        assert decision.allowed  # m1 + m2 still form the quorum
        assert harness.host.rejected_manager_signatures >= 1

    def _signed_answer(self, harness, manager, query_id, signer=None):
        from repro.core.messages import QueryResponse, Verdict

        response = QueryResponse(
            query_id=query_id,
            application=APP,
            user="alice",
            right=Right.USE,
            verdict=Verdict.GRANT,
            te=100.0,
            version=Version(1, ""),
            manager=manager.address,
        )
        return (signer or manager).principal.sign(response)

    def test_late_answer_dropped_before_its_signature_is_checked(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), signed=True
        )
        harness.grant_everywhere("alice")
        assert harness.check("alice").allowed
        assert len(harness.host._pending_queries) == 0
        verified = []
        authenticator = harness.host.manager_authenticator
        original = authenticator.authenticate
        authenticator.authenticate = lambda message: (
            verified.append(message) or original(message)
        )
        manager = harness.managers[0]
        # Query id 1 belonged to the finished round: late, whoever signed it.
        harness.host.handle_message(
            manager.address, self._signed_answer(harness, manager, query_id=1)
        )
        harness.host.handle_message(
            manager.address,
            self._signed_answer(harness, manager, query_id=1, signer=harness.managers[1]),
        )
        assert verified == []
        assert harness.host.late_manager_responses == 2
        assert harness.host.rejected_manager_signatures == 0

    def test_forged_answer_to_a_pending_query_still_rejected(self):
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), signed=True
        )
        reached_combiner = []
        query_id = harness.host._pending_queries.allocate(reached_combiner.append)
        manager = harness.managers[0]
        forged = self._signed_answer(
            harness, manager, query_id, signer=harness.managers[1]
        )
        harness.host.handle_message(manager.address, forged)
        assert harness.host.rejected_manager_signatures == 1
        assert harness.host.late_manager_responses == 0
        assert reached_combiner == [] and query_id in harness.host._pending_queries
        genuine = self._signed_answer(harness, manager, query_id)
        harness.host.handle_message(manager.address, genuine)
        assert reached_combiner == [genuine.payload]
        assert harness.host.rejected_manager_signatures == 1

    def test_impersonated_response_rejected(self):
        """A liar signing with its own key but claiming another
        manager's identity in the payload is dropped."""
        harness = ExtensionHarness(
            fanout_policy(check_quorum=3, byzantine_f=1, max_attempts=1),
            n_managers=4,
            liars=1,
            signed=True,
        )
        liar = harness.managers[-1]

        original_answer = liar._answer_query

        def impersonating_answer(src, request):
            from repro.core.messages import QueryResponse, Verdict
            from repro.core.rights import Version

            response = QueryResponse(
                query_id=request.query_id,
                application=request.application,
                user=request.user,
                right=request.right,
                verdict=Verdict.GRANT,
                te=100.0,
                version=Version(9_999, "m0"),
                manager="m0",  # claims to be the honest m0
            )
            liar.send(src, liar.principal.sign(response))

        liar._answer_query = impersonating_answer
        decision = harness.check("revoked-user")
        assert not decision.allowed
        assert harness.host.rejected_manager_signatures >= 1

    # -- pairwise-key (tagged) answers: the hostile peer ------------------------
    # Existing cases above run 128-bit manager keys, too small to carry a
    # pairwise key, so they stay on RSA; these use keys that can carry one.

    def _keyed(self):
        """A signed harness after one check: h0 generated a key for every
        manager, handed it over inside its queries, and got tagged answers."""
        harness = ExtensionHarness(
            fanout_policy(check_quorum=2, max_attempts=1), signed=True, key_bits=192
        )
        harness.grant_everywhere("alice")
        assert harness.check("alice").allowed
        assert harness.host.rejected_manager_signatures == 0
        assert set(harness.host._answer_keys) == set(harness.manager_addrs)
        harness.late_before = harness.host.late_manager_responses
        return harness

    def _answer_from(self, manager, src, request):
        """What ``manager`` itself sends back for ``request`` — captured."""
        sent = []
        manager.send = lambda dst, message: sent.append((dst, message))
        try:
            manager.handle_message(src, request)
        finally:
            del manager.send
        ((dst, answer),) = sent
        assert dst == src
        return answer

    def _genuine_tagged(self, harness, manager, query_id, host=None):
        host = host or harness.host
        offer = host.key_offer(manager.address)  # wrapped too, if not yet handed over
        answer = self._answer_from(
            manager, host.address, QueryRequest(query_id, APP, "alice", Right.USE, *offer)
        )
        assert type(answer.signature) is Tag and answer.signature.key_id == offer[0]
        return answer

    def _pending(self, harness):
        reached_combiner = []
        query_id = harness.host._pending_queries.allocate(reached_combiner.append)
        return query_id, reached_combiner

    def _assert_rejected(self, harness, message, query_id, reached_combiner, rejected):
        harness.host.handle_message("m0", message)
        assert harness.host.rejected_manager_signatures == rejected
        assert harness.host.late_manager_responses == harness.late_before
        assert reached_combiner == [] and query_id in harness.host._pending_queries

    def test_tagged_answer_accepted_under_the_key_the_host_generated(self):
        harness = self._keyed()
        query_id, reached_combiner = self._pending(harness)
        genuine = self._genuine_tagged(harness, harness.managers[0], query_id)
        harness.host.handle_message("m0", genuine)
        assert reached_combiner == [genuine.payload]
        assert harness.host.rejected_manager_signatures == 0
        assert harness.host.late_manager_responses == harness.late_before

    def test_forged_replayed_and_misattributed_tags_rejected(self):
        harness = self._keyed()
        host, (m0, m1, _m2) = harness.host, harness.managers
        query_id, reached = self._pending(harness)
        genuine = self._genuine_tagged(harness, m0, query_id)
        tag = genuine.signature

        # Forged: right signer and key id, wrong MAC — and values no MAC can be.
        for rejected, value in enumerate(
            (tag.value ^ 1, -1, 1 << 128, "7", None, 0.5), start=1
        ):
            forged = SignedMessage(genuine.payload, dataclasses.replace(tag, value=value))
            self._assert_rejected(harness, forged, query_id, reached, rejected)

        # Replayed: m0's genuine tag for an *earlier* query, moved to this one.
        earlier = self._genuine_tagged(harness, m0, query_id=1)
        replay = SignedMessage(
            dataclasses.replace(earlier.payload, query_id=query_id), earlier.signature
        )
        self._assert_rejected(harness, replay, query_id, reached, 7)

        # Misattributed: m1 (which holds a key with h0, so it can make tags
        # h0 would accept *as m1's*) answers in m0's name.
        m1_key, m1_key_id, _ = host._answer_keys["m1"]
        as_m1 = make_tag(genuine.payload, "m1", m1_key, m1_key_id)
        self._assert_rejected(
            harness, SignedMessage(genuine.payload, as_m1), query_id, reached, 8
        )
        as_m0 = make_tag(genuine.payload, "m0", m1_key, tag.key_id)
        self._assert_rejected(
            harness, SignedMessage(genuine.payload, as_m0), query_id, reached, 9
        )
        # ... and a tag whose signer is not the payload's manager, even
        # under the right key.
        other_signer = SignedMessage(genuine.payload, dataclasses.replace(tag, signer="m1"))
        self._assert_rejected(harness, other_signer, query_id, reached, 10)

        # After all that, the genuine answer still gets through.
        host.handle_message("m0", genuine)
        assert reached == [genuine.payload]
        assert host.rejected_manager_signatures == 10

    def test_tag_under_another_hosts_or_a_stale_key_rejected(self):
        harness = self._keyed()
        host, m0 = harness.host, harness.managers[0]
        other = AccessControlHost(
            "h1", host.default_policy, managers={APP: harness.manager_addrs},
            clock=LocalClock(harness.env),
            manager_authenticator=host.manager_authenticator,
        )
        harness.network.register(other)
        probe, _ = self._pending(harness)
        host._pending_queries.discard(probe)
        target = probe + 1  # the id h0's next query will carry

        # m0's genuine answer to h1 — under the h1-m0 key — shown to h0,
        # as recorded and with h0's own (public) key id pasted in.
        for_h1 = self._genuine_tagged(harness, m0, target, host=other)
        stale = self._genuine_tagged(harness, m0, target)  # under h0's current key
        query_id, reached = self._pending(harness)
        assert query_id == target
        self._assert_rejected(harness, for_h1, query_id, reached, 1)
        pasted = dataclasses.replace(for_h1.signature, key_id=host._answer_keys["m0"][1])
        self._assert_rejected(
            harness, SignedMessage(for_h1.payload, pasted), query_id, reached, 2
        )

        # h0 restarts: its keys are gone, so a tag under the old one is
        # refused both before and after it has generated the next.
        host.crash()
        host.recover()
        assert host._answer_keys == {}
        query_id, reached = self._pending(harness)
        stale = SignedMessage(
            dataclasses.replace(stale.payload, query_id=query_id), stale.signature
        )
        self._assert_rejected(harness, stale, query_id, reached, 3)
        assert host.key_offer("m0")[0] != stale.signature.key_id
        self._assert_rejected(harness, stale, query_id, reached, 4)

    def test_bad_key_offers_get_an_rsa_answer_and_are_counted(self):
        harness = self._keyed()
        m0 = harness.managers[0]
        public = m0.principal.public_key
        table = dict(m0._host_keys)
        key = bytes(range(16))

        def offer(key_id, wrapped):
            request = QueryRequest(77, APP, "alice", Right.USE, key_id, wrapped)
            answer = self._answer_from(m0, "h7", request)
            assert type(answer.signature) is Signature
            assert harness.host.manager_authenticator.authenticate(answer)
            assert m0._host_keys == table
            return m0.rejected_key_offers

        assert offer(key_fingerprint(key), 0) == 0  # names a key, offers none: not an offer
        assert offer(123, 987654321) == 1  # garbage
        assert offer(key_fingerprint(key), public.n) == 2  # oversize: not below the modulus
        assert offer(key_fingerprint(key), 1 << 100_000) == 3  # ... refused before any pow()
        assert offer(key_fingerprint(key), -5) == 4
        assert offer(key_fingerprint(key), "0xdeadbeef") == 5
        assert offer(key_fingerprint(key) ^ 1, public.wrap(key)) == 6  # fingerprint mismatch
        assert offer("not-an-id", public.wrap(key)) == 7
        # The same offer with the matching fingerprint is taken.
        answer = self._answer_from(
            m0, "h7",
            QueryRequest(78, APP, "alice", Right.USE, key_fingerprint(key), public.wrap(key)),
        )
        assert type(answer.signature) is Tag and check_tag(answer.payload, answer.signature, key)
        assert m0._host_keys["h7"] == (key_fingerprint(key), key)
        assert m0.rejected_key_offers == 7

    def test_offer_flood_keeps_the_managers_key_table_bounded(self, monkeypatch):
        harness = self._keyed()
        m0 = harness.managers[0]
        public = m0.principal.public_key
        monkeypatch.setattr(query_module, "MAX_HOST_KEYS", 8)

        def offer(src, index):
            key = index.to_bytes(16, "big")
            request = QueryRequest(
                index, APP, "alice", Right.USE, key_fingerprint(key), public.wrap(key)
            )
            assert type(self._answer_from(m0, src, request).signature) is Tag

        # One source, many keys: it only ever holds one slot.
        for index in range(1, 41):
            offer("h9", index)
            assert set(m0._host_keys) == {"h0", "h9"}
        # Many (spoofed) sources: the table stops at its bound and evicts
        # the longest-held key — h0's.
        for index in range(41, 81):
            offer(f"x{index}", index)
            assert len(m0._host_keys) <= 8
        assert "h0" not in m0._host_keys and m0.rejected_key_offers == 0

        # h0 is not locked out: m0 answers its next query with RSA, h0
        # accepts that as it always did and hands its key over again.
        harness.grant_everywhere("bob")
        assert harness.check("bob").allowed
        assert harness.host.rejected_manager_signatures == 0
        harness.grant_everywhere("carol")
        assert harness.check("carol").allowed
        assert m0._host_keys["h0"][0] == harness.host._answer_keys["m0"][1]
        assert len(m0._host_keys) <= 8

    def test_late_tagged_answer_dropped_before_its_tag_is_checked(self, monkeypatch):
        harness = self._keyed()
        checked = []
        monkeypatch.setattr(
            host_module, "check_tag", lambda *args: checked.append(args) or True
        )
        # Query id 1 belonged to the finished round.
        genuine = self._genuine_tagged(harness, harness.managers[0], query_id=1)
        forged = SignedMessage(genuine.payload, dataclasses.replace(genuine.signature, value=0))
        harness.host.handle_message("m0", genuine)
        harness.host.handle_message("m0", forged)
        assert checked == []
        assert harness.host.late_manager_responses == harness.late_before + 2
        assert harness.host.rejected_manager_signatures == 0
