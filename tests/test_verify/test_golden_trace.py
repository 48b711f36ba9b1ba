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

Every fixture's policy names the ``query_strategy`` that recorded it, so
a change of default cannot silently re-route a replay: ``cell4`` (quorum
dissemination) and ``cell9`` (freeze) fan out to all managers; ``cell42``
— partitions and a host crash, recorded under ``quorum`` — pins the
widening to a second batch and the asked-last order of silent managers.
``python tests/test_verify/test_golden_trace.py SEED CELL STRATEGY``
records a new one from whatever ``repro`` is on the path.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.verify.fuzz import PROTOCOL_TRACE_KINDS, run_cell_trace
from repro.verify.schedules import Schedule, generate_schedule

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = sorted(FIXTURES.glob("golden_trace_*.json"))


def load(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


class TestGoldenTraces:
    def test_fixtures_exist(self):
        assert len(GOLDEN) >= 2  # quorum and freeze variants

    def test_every_fixture_names_its_query_strategy(self):
        strategies = {
            path.stem: load(path)["schedule"]["policy"].get("query_strategy")
            for path in GOLDEN
        }
        assert None not in strategies.values(), strategies
        assert {"parallel", "quorum"} <= set(strategies.values())

    def test_quorum_fixture_widens_and_reorders(self):
        # The default-strategy fixture is only worth replaying if some
        # round in it went to a second batch: a host's QUERY_SENTs one
        # query_timeout apart with no QUERY_TIMEOUT (failed attempt)
        # between them.
        golden = load(FIXTURES / "golden_trace_seed7_cell42.json")
        timeout = golden["schedule"]["policy"]["query_timeout"]
        assert golden["schedule"]["partitions"]
        last_sent, widened = {}, 0
        for record in golden["records"]:
            host = record["source"]
            if record["kind"] == "query_timeout":
                last_sent.pop(host, None)
            elif record["kind"] == "query_sent":
                sent = last_sent.get(host)
                if sent is not None and record["time"] == pytest.approx(sent + timeout):
                    widened += 1
                    last_sent.pop(host)
                else:
                    last_sent[host] = record["time"]
        assert widened >= 3

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


if __name__ == "__main__":
    import sys

    seed, cell, strategy = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    schedule = generate_schedule(seed, cell)
    schedule = Schedule.from_dict(
        {**schedule.to_dict(), "policy": {**schedule.policy, "query_strategy": strategy}}
    )
    result, records = run_cell_trace(schedule)
    assert result.ok, result.violations
    document = {
        "cell": cell,
        "master_seed": seed,
        "records": records,
        "result_stats": result.stats,
        "schedule": schedule.to_dict(),
    }
    out = FIXTURES / f"golden_trace_seed{seed}_cell{cell}.json"
    out.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {len(records)} records to {out}")
