"""Tests for the experiment runners and registry.

The analytic experiments are checked against the paper's printed
numbers; the simulation experiments are smoke-run at reduced size and
checked for the qualitative *shape* the paper reports.
"""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    ablations,
    baselines,
    figure5,
    heterogeneous,
    latency,
    overhead,
    revocation,
    table1,
    table2,
    validation,
)
from repro.experiments.base import ExperimentResult, ascii_plot, format_table
from repro.experiments.table1 import PAPER_TABLE1
from repro.experiments.table2 import PAPER_TABLE2


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = {
            "figure5", "table1", "table2", "sim_table1", "overhead",
            "latency", "revocation", "freeze_vs_quorum", "baselines",
            "heterogeneous", "weighted_quorums", "mobility",
            "cache_extensions", "byzantine", "caching", "sharded",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_run_experiment_dispatches(self):
        result = run_experiment("table1")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "table1"


class TestFormatting:
    def test_format_table_aligns(self):
        text = format_table(["a", "long-header"], [[1, 2.5], [33, 0.1]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_format_empty_table(self):
        text = format_table(["x"], [])
        assert "x" in text

    def test_format_short_row_raises_value_error(self):
        # Regression: a short row used to escape as IndexError from the
        # width computation; it must be a clear ValueError instead.
        with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
            format_table(["a", "b"], [[1, 2], [3]])

    def test_format_long_row_raises_value_error(self):
        with pytest.raises(ValueError, match="row 0 has 3 cells, expected 2"):
            format_table(["a", "b"], [[1, 2, 3]])

    def test_ascii_plot_renders(self):
        plot = ascii_plot({"PA": [0.1, 0.9], "PS": [0.9, 0.1]}, [1, 2])
        assert "PA" in plot and "PS" in plot

    def test_result_render_and_dicts(self):
        result = table1.run()
        rendered = result.render()
        assert "table1" in rendered
        dicts = result.as_dicts()
        assert dicts[0]["C"] == 1


class TestTable1Experiment:
    def test_reproduces_paper_exactly(self):
        rows = {row["C"]: row for row in table1.run().as_dicts()}
        for c, (pa1, ps1, pa2, ps2) in PAPER_TABLE1.items():
            assert round(rows[c]["PA(C) Pi=0.1"], 5) == pa1
            assert round(rows[c]["PS(C) Pi=0.1"], 5) == ps1
            assert round(rows[c]["PA(C) Pi=0.2"], 5) == pa2
            assert round(rows[c]["PS(C) Pi=0.2"], 5) == ps2


class TestTable2Experiment:
    def test_reproduces_paper_exactly(self):
        result = table2.run()
        for row in result.as_dicts():
            key = (row["M"], row["C"])
            pa1, ps1, pa2, ps2 = PAPER_TABLE2[key]
            assert round(row["PA(C) Pi=0.1"], 5) == pa1
            assert round(row["PS(C) Pi=0.1"], 5) == ps1
            assert round(row["PA(C) Pi=0.2"], 5) == pa2
            assert round(row["PS(C) Pi=0.2"], 5) == ps2

    def test_has_ten_rows_like_the_paper(self):
        assert len(table2.run().rows) == 10


class TestFigure5Experiment:
    def test_full_curve(self):
        """Low security at C=1, low availability at C=M, and a wide
        sweet spot around M/2 where both are close to 1."""
        result = figure5.run(m=10, pi=0.1)
        assert len(result.rows) == 10
        assert result.extra_text  # the plot
        rows = {row["C"]: row for row in result.as_dicts()}
        assert rows[1]["PS(C)"] < 0.4
        assert rows[10]["PA(C)"] < 0.4
        sweet = [
            c for c in range(1, 11)
            if rows[c]["PA(C)"] > 0.98 and rows[c]["PS(C)"] > 0.98
        ]
        assert 5 in sweet and len(sweet) >= 4

    def test_best_c_noted(self):
        assert "C=5" in figure5.run(m=10, pi=0.1).notes


class TestValidationExperiment:
    def test_analytic_within_simulated_ci(self):
        result = validation.run(
            m=10, cs=(1, 5, 10), pis=(0.1, 0.2), trials=250, seed=0
        )
        eps = 1e-9
        for row in result.as_dicts():
            assert (row["PA ci-low"] - eps <= row["PA analytic"]
                    <= row["PA ci-high"] + eps)
            assert (row["PS ci-low"] - eps <= row["PS analytic"]
                    <= row["PS ci-high"] + eps)
        assert "all fall inside" in result.notes


class TestOverheadExperiment:
    def test_measured_tracks_c_over_te(self):
        result = overhead.run(cs=(1, 2), tes=(30.0,), seed=0)
        rows = result.as_dicts()
        for row in rows:
            assert row["ratio"] == pytest.approx(1.0, abs=0.15)
        # Doubling C doubles the measured rate.
        by_c = {row["C"]: row["measured msg/s"] for row in rows}
        assert by_c[2] == pytest.approx(2 * by_c[1], rel=0.15)

    def test_te_scaling(self):
        result = overhead.run(cs=(1,), tes=(30.0, 60.0), seed=0)
        by_te = {row["Te"]: row["measured msg/s"] for row in result.as_dicts()}
        assert by_te[30.0] == pytest.approx(2 * by_te[60.0], rel=0.15)


class TestLatencyExperiment:
    def test_predictions_match_measurements(self):
        rows = latency.run(seed=0).as_dicts()
        for row in rows:
            assert row["measured s"] == pytest.approx(
                row["predicted s"], abs=0.02
            ), row
        sequential = {
            row["C"]: row["measured s"]
            for row in rows
            if row["scenario"] == "miss/sequential"
        }
        assert sequential[5] > sequential[1] * 4  # the literal O(C)
        unreachable = {
            row["R"]: row["measured s"]
            for row in rows
            if row["scenario"] == "unreachable"
        }
        assert unreachable[8] > unreachable[1] * 7  # the O(R) worst case


class TestRevocationExperiment:
    def test_bound_never_violated(self):
        rows = revocation.run(te_bound=30.0, clock_bound=1.1).as_dicts()
        lag = "last allow after revoke (s)"
        for row in rows:
            assert row["bound"] == "OK"
            assert row[lag] < 30.0
        # Partitioned hosts ride the cache; connected hosts are flushed
        # almost at once by the forwarded Revoke.
        partitioned = [r[lag] for r in rows if r["network"] == "partitioned"]
        connected = [r[lag] for r in rows if r["network"] == "connected"]
        assert min(partitioned) > 10.0
        assert max(connected) < 5.0


class TestAblationExperiment:
    def test_freeze_collapses_quorum_does_not(self):
        result = ablations.run(seed=0)
        cells = {
            (row["strategy"], row["phase"]): row["availability"]
            for row in result.as_dicts()
        }
        assert cells[("quorum (C=2)", "during")] == pytest.approx(1.0)
        assert cells[("freeze (Ti=30)", "before")] == pytest.approx(1.0)
        assert cells[("freeze (Ti=30)", "during")] == pytest.approx(0.0)
        assert cells[("freeze (Ti=30)", "after")] == pytest.approx(1.0)


class TestBaselinesExperiment:
    def test_paper_protocol_has_zero_violations(self):
        # The long horizon is what lets full replication's missing
        # expiry surface as a violation.
        rows = {
            row["system"]: row
            for row in baselines.run(seed=0, duration=1500.0).as_dicts()
        }
        paper = rows["paper (cached quorum)"]
        assert paper["Te VIOLATIONS"] == 0
        assert paper["availability"] > 0.9
        assert rows["full replication"]["Te VIOLATIONS"] > 0
        assert rows["temporal auth"]["Te VIOLATIONS"] > 0
        assert rows["local only"]["availability"] < paper["availability"]
        assert rows["local only"]["ctrl msg/s"] > paper["ctrl msg/s"]
        # Temporal auth's lease (>> Te) lets far more revoked accesses
        # through than the paper's protocol.
        stale = lambda row: row["stale allows <= Te"] + row["Te VIOLATIONS"]
        assert stale(rows["temporal auth"]) > 5 * max(1, stale(paper))


class TestHeterogeneousExperiment:
    def test_flaky_weighting_reduces_security(self):
        result = heterogeneous.run(samples=4000, seed=0)
        rows = {
            (row["quantity"], row["site / C"], row["model"]): row["probability"]
            for row in result.as_dicts()
        }
        uniform = rows[("security", "system", "uniform weights")]
        weighted = rows[("security", "system", "flaky issues 80%")]
        assert weighted < uniform - 0.2

    def test_correlation_reduces_availability_at_mid_c(self):
        result = heterogeneous.run(samples=4000, seed=0)
        rows = {
            (row["quantity"], row["site / C"], row["model"]): row["probability"]
            for row in result.as_dicts()
        }
        assert (
            rows[("availability", "C=4", "correlated (MC)")]
            < rows[("availability", "C=4", "independent approx")] - 0.05
        )


class TestWeightedQuorumsExperiment:
    def test_weighted_beats_counts_and_removal(self):
        result = run_experiment("weighted_quorums")
        rows = {row["scheme"]: row["min(PA, PS)"] for row in result.as_dicts()}
        # Counts are in weighted voting's space, and the finer threshold
        # splits actually improve on them here.
        assert rows["optimal weights <= 3"] > rows["unit weights (paper)"] + 1e-4
        assert rows["remove flaky (M-1)"] < rows["unit weights (paper)"]


class TestMobilityExperiment:
    def test_policy_ordering(self):
        result = run_experiment("mobility", fractions=(0.1, 0.5), seed=0)
        cells = {
            (row["policy"], row["disconnected fraction"]): row["availability"]
            for row in result.as_dicts()
        }
        strict = lambda f: cells[("strict (Te=30)", f)]
        assert strict(0.1) > strict(0.5)
        assert strict(0.5) < 0.8
        for fraction in (0.1, 0.5):
            assert cells[("long cache (Te=300)", fraction)] >= strict(fraction)
            assert cells[("default-allow (Te=30)", fraction)] == 1.0
        assert (
            cells[("long cache (Te=300)", 0.5)]
            > cells[("strict (Te=30)", 0.5)]
        )


class TestCacheExtensionsExperiment:
    def test_shapes(self):
        result = run_experiment("cache_extensions", seed=0)
        rows = {
            (row["extension"], row["state"]): row for row in result.as_dicts()
        }
        on_p99 = float(rows[("refresh-ahead", "on")]["metric 2"].split()[1])
        off_p99 = float(rows[("refresh-ahead", "off")]["metric 2"].split()[1])
        # Refresh-ahead: p99 collapses from ~1 RTT to ~0.
        assert off_p99 > 50.0
        assert on_p99 < 5.0
        on_q = int(rows[("deny-cache", "on")]["traffic"].split()[0])
        off_q = int(rows[("deny-cache", "off")]["traffic"].split()[0])
        # Deny-cache: query traffic drops by an order of magnitude.
        assert on_q * 10 < off_q


class TestByzantineExperiment:
    def test_attack_and_defence(self):
        result = run_experiment("byzantine", trials=20, seed=0)
        rows = {row["configuration"]: row for row in result.as_dicts()}
        assert (
            rows["crash-only combine, 1 liar"]["fabricated grants accepted"]
            == 1.0
        )
        assert (
            rows["f=1 vouching, 1 liar"]["fabricated grants accepted"] == 0.0
        )
        fabricated = lambda name: rows[name]["fabricated grants accepted"]
        assert fabricated("crash-only combine, honest") == 0.0
        assert fabricated("f=1 vouching, 2 colluding liars") == 1.0
        assert fabricated("f=2 vouching, 2 colluding liars") == 0.0
        for row in rows.values():
            assert row["legitimate grants accepted"] == 1.0


class TestCachingExperiment:
    def test_cache_buys_queries_and_latency(self):
        result = run_experiment("caching", seed=0)
        rows = {row["configuration"]: row for row in result.as_dicts()}
        on = rows["caching on (Te=300)"]
        off = rows["caching off (te ~ 0)"]
        assert off["cache hit rate"] == 0.0
        assert on["cache hit rate"] > 0.8
        # ~8x fewer control messages per access, and typical latency
        # collapses.
        assert on["queries / access"] * 6 < off["queries / access"]
        assert on["mean ms"] * 4 < off["mean ms"]


class TestJobsInvariance:
    """Migrated in-worker-reduce runners: ``jobs=N`` must render
    byte-identically to the sequential fold for every experiment that
    grew a ``reduce=`` path."""

    @pytest.mark.parametrize(
        "module, kwargs",
        [
            (figure5, dict(m=4, pi=0.1)),
            (table1, dict(m=4, pis=(0.1,))),
            (table2, dict(pis=(0.1,))),
            (ablations, dict(seed=0)),
        ],
        ids=["figure5", "table1", "table2", "ablations"],
    )
    def test_render_identical_across_jobs(self, module, kwargs):
        sequential = module.run(**kwargs, jobs=1)
        pooled = module.run(**kwargs, jobs=4)
        assert pooled.render() == sequential.render()

    def test_weighted_argmax_reduce_identical_across_jobs(self):
        from repro.experiments import weighted

        sequential = weighted.run(m=4, jobs=1)
        pooled = weighted.run(m=4, jobs=4)
        assert pooled.render() == sequential.render()


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_unknown_id_fails(self, capsys):
        from repro.experiments.cli import main

        assert main(["bogus"]) == 2

    def test_runs_selected_experiment(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.38742" in out

    def test_jobs_flag_accepted_and_output_identical(self, capsys):
        from repro.experiments.cli import main

        # An analytic experiment ignores --jobs; a simulated one fans
        # out — both must succeed and print the same rows as jobs=1.
        assert main(["table1", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["revocation", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["revocation", "--jobs", "1"]) == 0
        sequential_out = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "completed in" not in line
        ]
        assert strip(parallel_out) == strip(sequential_out)


class TestShardedExperiment:
    def test_per_shard_curves_match_flat_analysis(self):
        from repro.experiments import sharded

        result = sharded.run(m=3, shards=2, cs=(1, 2), trials=150, seed=0)
        assert result.experiment_id == "sharded"
        assert len(result.rows) == 2 * 2  # |cs| x shards
        # The acceptance gate: every shard's Wilson interval contains
        # the flat analytic availability.
        assert "contains the flat analytic curve" in result.notes
        for c, shard, pa_true, pa_hat, lo, hi in result.rows:
            assert lo - 1e-9 <= pa_true <= hi + 1e-9

    def test_app_for_shard_is_deterministic_and_correct(self):
        from repro.experiments.sharded import app_for_shard
        from repro.protocols.sharding import ShardRouter

        groups = [tuple(f"s{g}m{i}" for i in range(3)) for g in range(4)]
        router = ShardRouter(groups)
        for shard in range(4):
            app = app_for_shard(4, 3, shard)
            assert router.shard_of(app) == shard
            assert app_for_shard(4, 3, shard) == app
