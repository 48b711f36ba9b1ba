"""Tests for the mega-population cell (workloads/mega.py).

The ThresholdOracle is the O(updates)-memory ground truth; the cell
itself is smoke-run at reduced size with the invariant checker on.
"""

from __future__ import annotations

import pytest

from repro.workloads.mega import ThresholdOracle, main, run_mega_cell
from repro.workloads.population import UserPopulation


class TestThresholdOracle:
    def make(self, n=100, granted=60, expiry=30.0):
        population = UserPopulation(n, sampler="harmonic")
        return ThresholdOracle(expiry, population, granted)

    def test_threshold_predicate(self):
        oracle = self.make()
        assert oracle.is_authorized("svc", "u0")
        assert oracle.is_authorized("svc", "u59")
        assert not oracle.is_authorized("svc", "u60")
        assert not oracle.is_authorized("svc", "u99")

    def test_unknown_and_noncanonical_names_denied(self):
        oracle = self.make()
        assert not oracle.is_authorized("svc", "u100")  # out of range
        assert not oracle.is_authorized("svc", "u07")  # non-canonical
        assert not oracle.is_authorized("svc", "mallory")

    def test_count_is_constant_time_and_correct(self):
        oracle = self.make(granted=60)
        assert oracle.authorized_count("svc") == 60
        oracle.grant("svc", "u80")  # new grant: +1
        assert oracle.authorized_count("svc") == 61
        oracle.grant("svc", "u0")  # already authorized: no change
        assert oracle.authorized_count("svc") == 61
        oracle.revoke("svc", "u0", time=5.0)
        assert oracle.authorized_count("svc") == 60
        oracle.revoke("svc", "u99", time=5.0)  # never authorized
        assert oracle.authorized_count("svc") == 60

    def test_overrides_beat_threshold(self):
        oracle = self.make(granted=60)
        oracle.revoke("svc", "u3", time=1.0)
        assert not oracle.is_authorized("svc", "u3")
        oracle.grant("svc", "u90")
        assert oracle.is_authorized("svc", "u90")

    def test_grace_window_after_revocation(self):
        oracle = self.make(granted=60, expiry=30.0)
        oracle.revoke("svc", "u3", time=10.0)
        assert oracle.in_grace("svc", "u3", time=40.0)
        assert not oracle.violation("svc", "u3", time=40.0)
        assert not oracle.in_grace("svc", "u3", time=40.1)
        assert oracle.violation("svc", "u3", time=40.1)

    def test_never_granted_is_violation_immediately(self):
        oracle = self.make(granted=60)
        assert oracle.violation("svc", "u99", time=0.0)

    def test_granted_range_validated(self):
        population = UserPopulation(10, sampler="harmonic")
        with pytest.raises(ValueError):
            ThresholdOracle(30.0, population, 11)
        with pytest.raises(ValueError):
            ThresholdOracle(30.0, population, -1)


class TestRunMegaCell:
    def test_small_cell_with_invariants(self):
        document = run_mega_cell(
            n_principals=5_000,
            shards=2,
            n_managers=3,
            n_hosts=2,
            n_apps=2,
            duration=40.0,
            access_rate=10.0,
            update_rate=0.2,
            seed=3,
            check_invariants=True,
        )
        assert document["attempts"] > 0
        assert document["allowed"] > 0
        assert document["violations"] == 0
        assert document["invariant_violations"] == 0
        assert document["attempts"] == document["allowed"] + document["denied"]
        assert (
            sum(document["attempts_by_shard"].values()) == document["attempts"]
        )
        # Names live arithmetically: seeding must not intern anything new.
        assert document["interned_extras"] == 0
        # Flat columns (25 bytes) plus the direct-addressed index (8 bytes
        # per user, 60 % of users granted): no per-entry Python objects.
        assert 25 < document["acl_bytes_per_entry"] <= 44
        assert document["peak_rss_mb"] > 0

    def test_bench_cell_sharded_gates(self):
        """A 2·10^4-principal sharded cell and its two gates: no
        security violation, and ACL memory of at most 44 bytes per
        seeded entry (25 of columns, the index's share at 60 %
        occupancy, and 10 % slack)."""
        document = run_mega_cell(
            n_principals=20_000, shards=3, n_managers=3, n_hosts=3, n_apps=3,
            duration=60.0, access_rate=30.0, update_rate=0.2, seed=0,
        )
        assert document["attempts"] > 0
        assert document["violations"] == 0
        assert document["acl_bytes_per_entry"] <= 44

    def test_deterministic_across_runs(self):
        kwargs = dict(
            n_principals=2_000, shards=2, n_apps=2, duration=30.0,
            access_rate=8.0, seed=11,
        )
        first = run_mega_cell(**kwargs)
        second = run_mega_cell(**kwargs)
        for key in ("attempts", "allowed", "denied", "attempts_by_shard"):
            assert first[key] == second[key]

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            run_mega_cell(n_principals=0)
        with pytest.raises(ValueError):
            run_mega_cell(n_apps=0)
        # Checked before seeding, which would index past the population.
        for granted_fraction in (1.5, -0.1):
            with pytest.raises(ValueError, match="granted_fraction"):
                run_mega_cell(n_principals=100, granted_fraction=granted_fraction)


class TestMegaCli:
    def test_smoke_run_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "mega.json"
        code = main([
            "--principals", "2000", "--shards", "2", "--apps", "2",
            "--duration", "20", "--rate", "8", "--seed", "5",
            "--check-invariants", "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "attempts:" in captured
        assert out.exists()

    def test_budget_gate_fails_when_exceeded(self, capsys):
        code = main([
            "--principals", "1000", "--shards", "2", "--apps", "2",
            "--duration", "10", "--rate", "5", "--budget", "0.0",
        ])
        assert code == 1
        assert "budget exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--principals", "0"),
            ("--shards", "0"),
            ("--managers", "0"),
            ("--hosts", "0"),
            ("--apps", "0"),
            ("--rate", "0"),
            ("--granted-fraction", "1.5"),
            ("--granted-fraction", "-0.1"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, capsys, flag, value):
        argv = ["--principals", "200", "--duration", "5", flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
