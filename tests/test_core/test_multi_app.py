"""Multi-application hosts with disjoint manager sets.

The paper scopes everything per application ("Access control of A is
assumed to be independent of other applications"); these tests pin that
independence down: one host serving two applications whose manager
sets do not overlap, with independent policies, caches, and failures.
"""

from __future__ import annotations

from repro.core.host import AccessControlHost, DecisionReason
from repro.core.manager import AccessControlManager
from repro.core.policy import AccessPolicy
from repro.core.rights import AclEntry, Right, Version
from repro.sim.clock import LocalClock
from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import Tracer


class DisjointHarness:
    """Host h0 serves app-a (managers a0, a1) and app-b (managers b0, b1)."""

    def __init__(self):
        self.env = Environment()
        self.tracer = Tracer(self.env)
        self.connectivity = ScriptedConnectivity()
        self.network = Network(
            self.env, connectivity=self.connectivity,
            latency=FixedLatency(0.02), tracer=self.tracer,
        )
        self.policy = AccessPolicy(
            check_quorum=2, expiry_bound=60.0, max_attempts=1,
            query_timeout=1.0, cache_cleanup_interval=None,
        )
        self.sets = {"app-a": ("a0", "a1"), "app-b": ("b0", "b1")}
        self.managers = {}
        for app, addrs in self.sets.items():
            for addr in addrs:
                manager = AccessControlManager(addr, self.policy)
                manager.manage(app, addrs)
                self.network.register(manager)
                self.managers[addr] = manager
        self.host = AccessControlHost(
            "h0", self.policy, managers=dict(self.sets),
            clock=LocalClock(self.env),
        )
        self.network.register(self.host)

    def grant(self, app: str, user: str):
        entry = AclEntry(user, Right.USE, True, Version(1, ""))
        for addr in self.sets[app]:
            self.managers[addr].bootstrap(app, [entry])

    def check(self, app: str, user: str, run_for: float = 10.0):
        process = self.host.request_access(app, user)
        self.env.run(until=self.env.now + run_for)
        return process.value


class TestDisjointManagerSets:
    def test_rights_do_not_leak_across_applications(self):
        harness = DisjointHarness()
        harness.grant("app-a", "alice")
        assert harness.check("app-a", "alice").allowed
        assert not harness.check("app-b", "alice").allowed

    def test_queries_go_only_to_the_apps_managers(self):
        harness = DisjointHarness()
        harness.grant("app-a", "alice")
        harness.check("app-a", "alice")
        assert harness.managers["a0"].stats["queries"] == 1
        assert harness.managers["b0"].stats["queries"] == 0

    def test_partitioned_app_does_not_affect_the_other(self):
        harness = DisjointHarness()
        harness.grant("app-a", "alice")
        harness.grant("app-b", "alice")
        # Cut the host off from app-b's managers only.
        harness.connectivity.isolate("h0", harness.sets["app-b"])
        assert harness.check("app-a", "alice").allowed
        blocked = harness.check("app-b", "alice")
        assert not blocked.allowed
        assert blocked.reason == DecisionReason.EXHAUSTED

    def test_revocation_scoped_to_one_application(self):
        harness = DisjointHarness()
        harness.grant("app-a", "alice")
        harness.grant("app-b", "alice")
        assert harness.check("app-a", "alice").allowed
        assert harness.check("app-b", "alice").allowed
        harness.managers["a0"].revoke("app-a", "alice")
        harness.env.run(until=harness.env.now + 10.0)
        assert not harness.check("app-a", "alice").allowed
        # app-b's cached grant is untouched.
        assert harness.check("app-b", "alice").reason == DecisionReason.CACHE

    def test_caches_are_per_application(self):
        harness = DisjointHarness()
        harness.grant("app-a", "alice")
        harness.grant("app-b", "alice")
        harness.check("app-a", "alice")
        harness.check("app-b", "alice")
        assert len(harness.host.cache_for("app-a")) == 1
        assert len(harness.host.cache_for("app-b")) == 1
        harness.host.cache_for("app-a").flush("alice")
        assert len(harness.host.cache_for("app-b")) == 1


class TestCliSeedOption:
    def test_seed_forwarded_to_stochastic_experiments(self, capsys):
        from repro.experiments.cli import main

        assert main(["--seed", "7", "latency"]) == 0
        out = capsys.readouterr().out
        assert "seed=7" in out

    def test_seed_ignored_by_analytic_experiments(self, capsys):
        from repro.experiments.cli import main

        assert main(["--seed", "7", "table1"]) == 0
        out = capsys.readouterr().out
        assert "0.38742" in out  # unchanged analytic output
