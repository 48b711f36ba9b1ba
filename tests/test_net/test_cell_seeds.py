"""Seeded grants on a :class:`LiveCell`: recorded before ``start``,
loaded into every manager in one bulk write, refused afterwards."""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.net.cell import LiveCell

SECRET = b"cell-seed-secret"


def _profiled_seeding(n_managers: int, names) -> int:
    """Python-level calls made to seed ``names`` and hand them over
    (the first step of ``start``)."""
    cell = LiveCell(n_managers=n_managers, n_hosts=1, secret=SECRET)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        for name in names:
            cell.seed_grant("app", name)
        cell._load_seeds()
    finally:
        sys.setprofile(None)
    assert all(manager.acl("app").check(names[-1], Right.USE) for manager in cell.managers)
    return calls


def test_seeding_cost_per_name_does_not_grow_with_managers():
    """A deterministic cost guard: a name costs the same Python calls
    whether 3 or 5 managers load it.  The per-entry merge it replaced
    cost 9 calls per name per manager (30 per name at M=3, 48 at M=5)."""
    names = [f"p{i}" for i in range(2000)]
    per_name = {m: _profiled_seeding(m, names) / len(names) for m in (3, 5)}
    assert per_name[5] - per_name[3] < 0.1, per_name


def test_seeds_reach_the_managers_at_start_over_one_interner():
    async def scenario():
        cell = LiveCell(n_managers=3, n_hosts=2, policy=AccessPolicy(check_quorum=2),
                        secret=SECRET, time_scale=20.0)
        cell.seed_grant("app", "alice")
        cell.seed_grant("app", "bob", Right.MANAGE)
        before = [manager.acl("app").check("alice", Right.USE) for manager in cell.managers]
        await cell.start()
        try:
            after = [
                (acl.check("alice", Right.USE), acl.check("bob", Right.MANAGE),
                 acl.check("admin", Right.MANAGE))
                for acl in (manager.acl("app") for manager in cell.managers)
            ]
            decision = await asyncio.wait_for(cell.check(1, "app", "alice"), 10.0)
            return before, after, decision.allowed, cell
        finally:
            await cell.stop()

    before, after, allowed, cell = asyncio.run(scenario())
    assert before == [False, False, False]
    assert after == [(True, True, True)] * 3
    assert allowed
    nodes = [*cell.managers, *cell.hosts]
    assert all(node._ids is cell.interner for node in nodes)


def test_seed_grant_after_start_raises_and_writes_nothing():
    """After ``start`` a manager's state belongs to its runtime's
    passes; seeding from outside one would race the protocol."""
    async def scenario():
        cell = LiveCell(n_managers=3, n_hosts=1, policy=AccessPolicy(check_quorum=2),
                        secret=SECRET, time_scale=20.0)
        cell.seed_grant("app", "alice")
        await cell.start()
        try:
            with pytest.raises(RuntimeError):
                cell.seed_grant("app", "mallory")
            seeded = [manager.acl("app").check("mallory", Right.USE) for manager in cell.managers]
            decision = await asyncio.wait_for(cell.check(0, "app", "alice"), 10.0)
            return seeded, decision.allowed
        finally:
            await cell.stop()

    seeded, allowed = asyncio.run(scenario())
    assert seeded == [False, False, False]
    assert allowed


def test_seed_grant_for_an_unserved_application_raises():
    cell = LiveCell(n_managers=3, n_hosts=1, secret=SECRET)
    with pytest.raises(KeyError):
        cell.seed_grant("other", "alice")
