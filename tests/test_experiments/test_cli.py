"""CLI surface: subcommand dispatch and the ``--profile`` flag."""

from __future__ import annotations

import pstats

from repro.experiments.cli import main


class TestProfileFlag:
    def test_experiments_profile_writes_prof(self, tmp_path, capsys):
        rc = main(["table1", "--profile", "--out", str(tmp_path)])
        assert rc == 0
        prof = tmp_path / "repro-experiments.prof"
        assert prof.exists()
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0
        assert f"profile written to {prof}" in capsys.readouterr().out

    def test_fuzz_profile_writes_prof(self, tmp_path):
        rc = main(
            ["fuzz", "--cells", "1", "--profile", "--out", str(tmp_path)]
        )
        assert rc == 0
        prof = tmp_path / "repro-fuzz.prof"
        assert prof.exists()
        assert pstats.Stats(str(prof)).total_calls > 0

    def test_no_profile_leaves_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["table1"])
        assert rc == 0
        assert not (tmp_path / "repro-experiments.prof").exists()


class TestBenchDispatch:
    def test_bench_subcommand_runs_and_profiles(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(
            ["bench", "cache_hit_checks", "--quick", "--repeats", "1", "--profile"]
        )
        assert rc == 0
        assert (tmp_path / "repro-bench.prof").exists()
        # A cell run records nothing: no trajectory or baseline file.
        assert [path.name for path in tmp_path.iterdir()] == ["repro-bench.prof"]
        assert "cache_hit_checks: best" in capsys.readouterr().out

    def test_bench_list(self, capsys):
        """An unknown cell name fails with the list of valid names."""
        rc = main(["bench", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown cells: nope" in err
        assert "msg_send_deliver" in err and "live_fanout" in err
