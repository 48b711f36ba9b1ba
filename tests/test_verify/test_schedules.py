"""Tests for schedule derivation, serialization, and well-formedness."""

from __future__ import annotations

import json

import pytest

from repro.sim.rng import derive_seed
from repro.verify.schedules import (
    ClockDriftSpec,
    PartitionEvent,
    Schedule,
    generate_schedule,
)


class TestGeneration:
    def test_deterministic(self):
        assert generate_schedule(7, 3) == generate_schedule(7, 3)

    def test_cells_differ(self):
        schedules = [generate_schedule(7, i) for i in range(20)]
        assert len({s.seed for s in schedules}) == 20

    def test_masters_differ(self):
        assert generate_schedule(1, 0) != generate_schedule(2, 0)

    def test_seed_uses_runtime_derivation(self):
        # Pinned to the SHA-256 stream ``fuzz[i]`` so workers and
        # replays agree on what cell i contains.
        schedule = generate_schedule(5, 9)
        assert schedule.seed == derive_seed(5, "fuzz[9]")

    @pytest.mark.parametrize("cell", range(30))
    def test_well_formed(self, cell):
        schedule = generate_schedule(123, cell)
        addresses = {f"m{i}" for i in range(schedule.n_managers)} | {
            f"h{i}" for i in range(schedule.n_hosts)
        }
        for event in schedule.partitions:
            assert 0.0 < event.start < event.end <= schedule.horizon
            assert len(event.groups) == 2
            flat = [a for group in event.groups for a in group]
            assert sorted(flat) == sorted(addresses)
        for event in schedule.crashes:
            assert 0.0 < event.at < event.recover_at <= schedule.horizon
            assert event.node.startswith("h"), "fuzz crashes target hosts"
        assert len(schedule.drift.rates) == schedule.n_hosts
        bound = schedule.drift.bound
        for rate in schedule.drift.rates:
            assert 1.0 / bound <= rate <= 1.0
        if schedule.policy.get("use_freeze"):
            assert (
                schedule.policy["inaccessibility_period"]
                < schedule.policy["expiry_bound"]
            )
        assert 1 <= schedule.policy["check_quorum"] <= schedule.n_managers

    def test_partitions_do_not_overlap(self):
        for cell in range(30):
            schedule = generate_schedule(42, cell)
            windows = sorted(
                (e.start, e.end) for e in schedule.partitions
            )
            for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
                assert prev_end <= next_start


class TestSerialization:
    def test_json_round_trip(self):
        schedule = generate_schedule(7, 0)
        assert Schedule.from_json(schedule.to_json()) == schedule

    def test_save_load(self, tmp_path):
        schedule = generate_schedule(7, 1)
        path = tmp_path / "cell1.json"
        schedule.save(str(path))
        assert Schedule.load(str(path)) == schedule

    def test_serialized_form_is_plain_json(self):
        payload = json.loads(generate_schedule(7, 2).to_json())
        assert payload["format"] == 1
        assert isinstance(payload["policy"], dict)

    def test_unknown_format_rejected(self):
        payload = generate_schedule(7, 0).to_dict()
        payload["format"] = 999
        with pytest.raises(ValueError):
            Schedule.from_dict(payload)

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            PartitionEvent(start=1.0, end=2.0, groups=(("a",), ("a", "b")))
        # A replayed file is checked too, before any group is imposed.
        payload = generate_schedule(7, 0).to_dict()
        groups = payload["partitions"][0]["groups"]
        groups[1].append(groups[0][0])
        with pytest.raises(ValueError, match=repr(groups[0][0])):
            Schedule.from_dict(payload)


class TestShrinkPrimitives:
    def test_halved_drift_moves_rates_toward_one(self):
        spec = ClockDriftSpec(bound=1.1, rates=(0.92, 1.0), offsets=(3.0, 4.0))
        halved = spec.halved()
        assert halved.rates[0] == pytest.approx(0.96)
        assert halved.rates[1] == 1.0
        assert halved.offsets == spec.offsets

    def test_replace_is_structural(self):
        schedule = generate_schedule(7, 0)
        reduced = schedule.replace(partitions=())
        assert reduced.partitions == ()
        assert reduced.seed == schedule.seed
        assert schedule.partitions != ()  # original untouched

    def test_fault_count(self):
        schedule = generate_schedule(7, 0)
        assert schedule.fault_count() == len(schedule.partitions) + len(
            schedule.crashes
        )
