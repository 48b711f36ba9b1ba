"""End-to-end tests for the fault-schedule fuzzer.

The two acceptance properties:

* On the correct implementation, fuzz cells pass — the oracles raise no
  false alarms under partitions, host crashes, and drifting clocks.
* With the Figure 3 ``delta`` subtraction deliberately removed, the
  fuzzer reports a ``te_bound`` violation and shrinks the failure to a
  minimal schedule whose JSON replays the violation deterministically.
"""

from __future__ import annotations

import pytest

from repro.core.host import AccessControlHost
from repro.experiments.cli import main as cli_main
from repro.verify import Schedule, generate_schedule, run_cell, run_fuzz
from repro.verify import fuzz
from repro.verify.fuzz import CRASH, shrink_schedule


@pytest.fixture
def broken_delta(monkeypatch):
    """Reintroduce the classic Figure 3 bug: stamp ``Time() + te``
    without subtracting the round-trip delta."""

    def stamp_without_delta(self, send_local, te, policy):
        return self.clock.now() + te

    monkeypatch.setattr(AccessControlHost, "_expiry_limit", stamp_without_delta)


@pytest.fixture
def crash_raises(monkeypatch):
    """Make every scheduled node crash kill its process with an
    exception that nothing observes."""

    def raising_crash(env, node, at, tracer=None):
        def _proc():
            yield env.timeout(at - env.now)
            raise RuntimeError(f"{node.address} crash handler broke")

        return env.process(_proc(), name=f"crash:{node.address}")

    monkeypatch.setattr(fuzz, "schedule_crash", raising_crash)


class TestCleanRuns:
    def test_small_sweep_passes(self):
        report = run_fuzz(7, 6, jobs=1)
        assert report.ok
        assert len(report.results) == 6
        assert all(result.ok for result in report.results)
        # Cells 2 and 3 of seed 7: one quorum-disseminated and one
        # freeze-disseminated protocol cell under partitions and crashes.
        assert report.results[2].ok and report.results[3].ok

    def test_cells_actually_exercise_the_protocol(self):
        report = run_fuzz(7, 6, jobs=1)
        totals = {}
        for result in report.results:
            for key, value in result.stats.items():
                totals[key] = totals.get(key, 0) + value
        assert totals["access_allowed"] > 0
        assert totals["cache_stored"] > 0
        assert totals["update_issued"] > 0
        assert totals["partition_started"] > 0

    def test_replay_is_deterministic(self):
        schedule = generate_schedule(7, 2)
        assert run_cell(schedule) == run_cell(schedule)

    def test_jobs_do_not_change_results(self):
        sequential = run_fuzz(7, 4, jobs=1)
        parallel = run_fuzz(7, 4, jobs=2)
        assert sequential.results == parallel.results

    @pytest.mark.slow
    def test_wide_sweep_passes(self):
        # The CI fuzz-smoke configuration: same seed, more cells.
        report = run_fuzz(7, 50, jobs=0)
        assert report.ok, report.summary()


class TestBrokenDeltaIsCaught:
    def test_fuzzer_reports_te_bound_violation(self, broken_delta):
        report = run_fuzz(7, 2, jobs=1)
        assert not report.ok
        failure = report.failures[0]
        assert failure.violations[0]["invariant"] == "te_bound"
        assert "delta" in failure.violations[0]["message"]

    def test_minimal_schedule_replays_deterministically(
        self, broken_delta, tmp_path
    ):
        report = run_fuzz(7, 1, jobs=1)
        assert not report.ok
        failure = report.failures[0]
        # The shrunk schedule still reproduces the same invariant...
        path = tmp_path / "minimal.json"
        failure.minimal.save(str(path))
        replayed = run_cell(Schedule.load(str(path)))
        assert not replayed.ok
        assert replayed.violations[0]["invariant"] == "te_bound"
        # ...bit-for-bit: two replays agree on every violation detail.
        assert replayed == run_cell(failure.minimal)

    def test_shrinking_reduces_fault_events(self, broken_delta):
        schedule = generate_schedule(7, 0)
        assert schedule.fault_count() > 0
        minimal, steps = shrink_schedule(schedule, "te_bound")
        assert steps > 0
        # The stamp bug needs no faults at all; shrinking finds that.
        assert minimal.fault_count() < schedule.fault_count()

    def test_without_shrink_original_schedule_is_kept(self, broken_delta):
        report = run_fuzz(7, 1, jobs=1, shrink=False)
        failure = report.failures[0]
        assert failure.minimal == failure.schedule
        assert failure.shrink_steps == 0


class TestProcessCrashIsCaught:
    def test_crash_fails_the_cell(self, crash_raises):
        schedule = generate_schedule(7, 3)
        assert schedule.crashes
        result = run_cell(schedule)
        assert not result.ok
        violation = result.violations[0]
        assert violation["invariant"] == CRASH
        assert violation["message"].startswith("RuntimeError")
        assert violation["time"] == schedule.crashes[0].at

    def test_sweep_reports_and_shrinks_instead_of_aborting(self, crash_raises):
        schedule = generate_schedule(7, 0)
        report = run_fuzz(7, 1, jobs=1, schedules=[schedule])
        assert not report.ok
        failure = report.failures[0]
        assert failure.violations[0]["invariant"] == CRASH
        # One crash event is all it takes; shrinking drops the rest.
        assert failure.minimal.fault_count() < schedule.fault_count()
        assert len(failure.minimal.crashes) == 1


class TestFuzzCli:
    def test_clean_sweep_exits_zero(self, capsys):
        assert cli_main(["fuzz", "--cells", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "3 cells" in out
        assert "0 failed" in out

    def test_replay_flag(self, tmp_path, capsys):
        schedule = generate_schedule(7, 0)
        path = tmp_path / "cell0.json"
        schedule.save(str(path))
        assert cli_main(["fuzz", "--schedule", str(path)]) == 0
        assert "replay passed" in capsys.readouterr().out

    def test_failure_writes_minimal_schedule(
        self, broken_delta, tmp_path, capsys
    ):
        code = cli_main(
            [
                "fuzz",
                "--cells", "1",
                "--seed", "7",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        written = list(tmp_path.glob("fuzz-cell*-te_bound.json"))
        assert len(written) == 1
        # The written schedule replays to a failing exit code.
        assert cli_main(["fuzz", "--schedule", str(written[0])]) == 1
        out = capsys.readouterr().out
        assert "te_bound" in out

    def test_bad_cells_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--cells", "0"])
