"""CLI surface: subcommand dispatch, the ``--profile`` flag and fuzz replay input."""

from __future__ import annotations

import pstats

import pytest

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


class TestSubcommandDispatch:
    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["mega", "--principals", "0"], "--principals"),
            (["serve", "--time-scale", "0"], "--time-scale"),
            (["load", "--cell", "cell.json", "--clients", "0"], "--clients"),
        ],
        ids=["mega", "serve", "load"],
    )
    def test_routes_the_rest_of_argv_to_the_subcommand(self, argv, flag, capsys):
        # Refused by the subcommand's own parser: nothing runs.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]}: error: argument {flag}" in err


class TestScheduleFile:
    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"cell": 0}', "'seed'"),
            ("[1, 2]", "JSON object"),
            ("not json", "Expecting value"),
        ],
        ids=["no-seed", "list", "not-json"],
    )
    def test_malformed_schedule_exits_2_naming_the_flag(self, tmp_path, capsys, text, named):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--schedule", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "fuzz: error: --schedule" in err and named in err
