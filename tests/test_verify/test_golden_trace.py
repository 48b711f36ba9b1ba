"""Golden-trace equivalence: the refactored pipeline must replay the
pre-refactor protocol event sequences bit-for-bit.

The fixtures were recorded by driving seeded fuzz schedules through the
monolithic host/manager implementation and capturing every
protocol-level trace record (kind, source, time, payload).  Replaying
the same schedules through the current strategy-composed implementation
must yield the identical sequence — same events, same order, same
timestamps, same payloads — plus identical run statistics.  Any
behavioural drift in the refactor (a reordered send, a perturbed RNG
draw, a changed timeout) shows up here as the first diverging record.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.verify.fuzz import PROTOCOL_TRACE_KINDS, run_cell_trace
from repro.verify.schedules import Schedule

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = sorted(FIXTURES.glob("golden_trace_*.json"))


def load(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


class TestGoldenTraces:
    def test_fixtures_exist(self):
        assert len(GOLDEN) >= 2  # quorum and freeze variants

    @pytest.mark.parametrize(
        "fixture", GOLDEN, ids=[path.stem for path in GOLDEN]
    )
    def test_replay_is_bit_identical(self, fixture):
        golden = load(fixture)
        schedule = Schedule.from_dict(golden["schedule"])
        result, records = run_cell_trace(schedule)
        assert result.ok, result.violations
        assert result.stats == golden["result_stats"]
        expected = golden["records"]
        assert len(records) == len(expected)
        for index, (got, want) in enumerate(zip(records, expected)):
            assert got == want, (
                f"{fixture.name}: trace diverges at record {index}: "
                f"got {got!r}, want {want!r}"
            )

    def test_fixture_covers_both_strategies(self):
        kinds_by_fixture = {
            path.stem: {record["kind"] for record in load(path)["records"]}
            for path in GOLDEN
        }
        all_kinds = set().union(*kinds_by_fixture.values())
        # One fixture exercises the freeze strategy, one the quorum path.
        assert "manager_frozen" in all_kinds
        assert "update_quorum_reached" in all_kinds

    def test_capture_does_not_perturb_the_run(self):
        # Subscribing the capture hook must not consume randomness or
        # events: stats with and without capture are identical.
        from repro.verify.fuzz import run_cell

        golden = load(GOLDEN[0])
        schedule = Schedule.from_dict(golden["schedule"])
        bare = run_cell(schedule)
        traced, _records = run_cell_trace(schedule)
        assert bare.stats == traced.stats
        assert bare.ok == traced.ok

    def test_recorded_kinds_are_protocol_level(self):
        # The golden fixtures deliberately exclude network-level msg_*
        # events; the protocol vocabulary is the contract.
        for path in GOLDEN:
            for record in load(path)["records"]:
                assert record["kind"] in PROTOCOL_TRACE_KINDS
