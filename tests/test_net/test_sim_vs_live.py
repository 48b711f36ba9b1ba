"""The sim<->socket differential suite.

Every scenario is derived deterministically from a fuzz
:class:`~repro.verify.schedules.Schedule` and executed twice: once on
the in-process simulator, once over real localhost TCP (accelerated
wall clock).  The two backends must agree *decision-exactly* — the same
access decisions with the same reasons, and ACLs that converge to the
same (granted, version-rank, origin) state on every manager — while
being free to disagree on timing (HLC counters embed physical
milliseconds, hence the rank canonicalisation in ScenarioOutcome).

Tier-1 runs every golden-trace schedule (quorum and freeze cells); the
wider ten-cell fuzz sample is ``slow`` and runs in
the net-smoke CI job.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.auth.identity import Authenticator, Principal
from repro.auth.keys import PrivateKey
from repro.net import scenario as scenario_module
from repro.net.scenario import derive_scenario, run_scenario_live, run_scenario_sim
from repro.verify.schedules import Schedule, generate_schedule

FIXTURES = Path(__file__).parent.parent / "test_verify" / "fixtures"
GOLDEN = sorted(FIXTURES.glob("golden_trace_*.json"))

#: Sim-seconds per wall-second for the live leg.  Scenarios span ~60
#: sim-seconds, so a run costs ~1.2 wall-seconds plus socket overhead.
TIME_SCALE = 50.0


def _golden_schedule(path: Path) -> Schedule:
    with path.open(encoding="utf-8") as handle:
        return Schedule.from_dict(json.load(handle)["schedule"])


def _differential(schedule: Schedule, name: str) -> None:
    scenario = derive_scenario(schedule, name=name)
    sim = run_scenario_sim(scenario)
    live = asyncio.run(run_scenario_live(scenario, time_scale=TIME_SCALE))
    assert sim.decisions == live.decisions, (
        f"{name}: decision streams diverge\n sim: {sim.decisions}\nlive: {live.decisions}"
    )
    assert sim.canonical() == live.canonical(), (
        f"{name}: converged ACL state diverges"
    )


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_trace_scenarios_match_on_both_backends(path):
    _differential(_golden_schedule(path), path.stem)


def test_signed_answers_give_the_same_decisions_on_both_backends(monkeypatch):
    """The live cell signs by default; here the sim leg does too (principals
    on the managers, an authenticator on the hosts, as ``LiveCell`` wires
    them), so both backends run key transport, tagged answers, and — the
    schedule crashes nodes — the RSA fallback and re-offer."""
    cells = []
    make_system, make_cell = scenario_module.AccessControlSystem, scenario_module.LiveCell

    def signed_system(*args, **kwargs):
        system = make_system(*args, **kwargs)
        authenticator = Authenticator()
        for manager in system.managers:
            manager.principal = Principal(manager.address)
            authenticator.register(manager.principal)
        for host in system.hosts:
            host.manager_authenticator = authenticator
        cells.append(system)
        return system

    def recorded_cell(*args, **kwargs):
        cells.append(make_cell(*args, **kwargs))
        return cells[-1]

    private_ops = []
    power = PrivateKey.power
    monkeypatch.setattr(
        PrivateKey, "power", lambda self, m: private_ops.append(self.n) or power(self, m)
    )
    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "AccessControlSystem", signed_system)
        patch.setattr(scenario_module, "LiveCell", recorded_cell)
        _differential(_golden_schedule(GOLDEN[0]), f"{GOLDEN[0].stem}-signed")

    answers = 0
    for cell in cells:  # the sim system, then the live cell
        answers += sum(manager.stats["queries"] for manager in cell.managers)
        assert any(host._answer_keys for host in cell.hosts)
        assert all(host.rejected_manager_signatures == 0 for host in cell.hosts)
        assert all(manager.rejected_key_offers == 0 for manager in cell.managers)
    # Short as the schedule is (and with its crashes forcing re-offers), key
    # transport already costs half the private-key operations of one per answer.
    assert len(cells) == 2 and answers >= 24
    assert len(private_ops) <= answers // 2, (len(private_ops), answers)


def test_golden_fixtures_cover_both_protocol_variants():
    # The differential above is only meaningful if the fixture pool
    # exercises quorum AND freeze dissemination.
    schedules = [_golden_schedule(path) for path in GOLDEN]
    assert any(s.policy.get("use_freeze") for s in schedules)
    assert any(not s.policy.get("use_freeze") for s in schedules)


@pytest.mark.slow
@pytest.mark.parametrize("cell", range(10))
def test_fuzz_schedule_sample_matches_on_both_backends(cell):
    _differential(generate_schedule(7, cell), f"fuzz-cell{cell}")
