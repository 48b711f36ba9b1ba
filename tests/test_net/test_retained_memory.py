"""What a served miss leaves behind in a live cell.

A cell keeps per-principal state by design (hosts cache grants,
managers remember whom they granted to), but each principal's name
should be one string in the process, the one the cell's
:class:`~repro.core.ids.Interner` holds, however many messages and
connections carried it.  These guards build a cell over real sockets,
serve distinct misses through a client on its own runtime (so every
name a node sees came off the wire) and check:

(a) the bytes those misses leave allocated stay under a bound;
(b) the host's cache entries name their users by the interner's own
    strings, and the managers' grant tables key them by interned id;
(c) a decoder that knows the interner never grows it;
(d) the segment layer's name table stays bounded;
(e) a grant-table key with one holder costs a bounded number of bytes.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc

import pytest

from repro.core.client import UserClient
from repro.core.ids import Interner
from repro.core.messages import Ping
from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.net.cell import LiveCell
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.net.session import SessionAuth
from repro.protocols.query import GrantTable

APP = "app"
SEEDED = 2000
WARM_UP = 200
MISSES = 1000
#: Retained bytes per served miss, allocated by ``repro`` code.  The
#: count is deterministic per interpreter: with a separate copy of each
#: name per decode and a dict of holders per grant-table key it read
#: 2 089 / 1 984 / 1 904 on CPython 3.10 / 3.11 / 3.12, with one copy per
#: principal 1 303 / 1 197 / 1 189; with second-sight dictionary
#: admission and a columnar grant table 655 / 651 / 651.
BOUND_PER_MISS = 800

#: Grant-table bytes per key with one holder, at 20 000 keys: a key tuple
#: and a holders tuple per key read 166 B on CPython 3.11, an int key to
#: a chain of packed column records 102 / 110 / 110 B on 3.10 / 3.11 / 3.12.
BOUND_PER_GRANT_KEY = 128


def principal(index: int) -> str:
    """Non-dense names (the session dictionary defines them), built
    afresh on every call: a new object, never the interner's."""
    return f"p{index}@d{index % 251}.example.org"


async def _serve_misses():
    cell = LiveCell(n_managers=3, n_hosts=2,
                    policy=AccessPolicy(check_quorum=2, expiry_bound=300.0))
    for index in range(SEEDED):
        cell.seed_grant(APP, principal(index))
    runtime = LiveRuntime(cell.secret)
    client = runtime.register(UserClient("c0", ""))
    await cell.start()
    await runtime.start()
    runtime.set_peers(cell.directory)
    hosts = [host.address for host in cell.hosts]

    async def read(index: int) -> None:
        client.user_id = principal(index)
        result = await runtime.run_process(client.invoke(hosts[index % 2], APP, index))
        assert result.allowed, (index, result)

    try:
        for index in range(WARM_UP):
            await read(index)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for index in range(WARM_UP, WARM_UP + MISSES):
                await read(index)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        await runtime.stop()
        await cell.stop()
    ours = [tracemalloc.Filter(True, "*/repro/*")]
    grown = after.filter_traces(ours).compare_to(before.filter_traces(ours), "filename")
    return cell, sum(stat.size_diff for stat in grown) / MISSES


@pytest.fixture(scope="module")
def served():
    """One cell, its misses served, and their retained bytes per miss."""
    return asyncio.run(_serve_misses())


def test_served_misses_retain_bounded_bytes(served):
    _, per_miss = served
    assert per_miss < BOUND_PER_MISS, f"{per_miss:.0f} retained bytes per served miss"


def test_cache_and_grant_table_name_users_by_the_interners_strings(served):
    cell, _ = served
    interner = cell.interner

    def own(name: str) -> bool:
        return name is interner.name_of(interner.get(name))

    cached = [entry.user for host in cell.hosts for entry in host.cache_for(APP).entries()]
    tables = [manager._grant_table[APP] for manager in cell.managers]
    assert len(cached) == MISSES + WARM_UP
    assert sum(map(len, tables)) == 2 * (MISSES + WARM_UP)  # C = 2 answers per miss
    assert all(map(own, cached)), "a cache entry holds its own copy of the user's name"
    for index in range(MISSES + WARM_UP):
        key = (principal(index), Right.USE)
        assert sum(key in table for table in tables) == 2, index


def test_decoder_never_grows_the_interner():
    cell = LiveCell(n_managers=1, n_hosts=1, policy=AccessPolicy(check_quorum=1))
    cell.seed_grant(APP, principal(7))
    cell._load_seeds()
    interner = cell.interner
    size = len(interner)
    encoder, decoder = BinaryEncoder(), BinaryDecoder()
    decoder.interner = interner
    strangers = [f"stranger-{index}@elsewhere.example" for index in range(100)]
    decoded = [decoder.decode(encoder.encode(Ping(nonce=index, sender=name)))
               for index, name in enumerate(strangers)]
    assert [message.sender for message in decoded] == strangers
    assert len(interner) == size
    known = decoder.decode(encoder.encode(Ping(nonce=0, sender=principal(7)))).sender
    assert known is interner.name_of(interner.get(principal(7)))


def test_segment_name_table_is_bounded():
    sealer, opener = SessionAuth(b"s"), SessionAuth(b"s")
    for index in range(1000):
        segment = sealer.seal_segment(f"rt-{index}", "rt-b", [(f"n{index}", "m0", b"")])
        sender, _, items = opener.open_segment(segment)
        assert (sender, items[0][0]) == (f"rt-{index}", f"n{index}")
    assert len(opener._names) <= 256
    again = opener.open_segment(sealer.seal_segment("rt-999", "rt-b", [("m0", "h0", b"x")]))
    assert again[2] == [("m0", "h0", b"x")] and again[2][0][0] is items[0][1]


def test_grant_table_holders_keep_first_grant_order():
    """Revocation forwarding walks holders in the order hosts were first
    granted to; a repeat grant only moves that host's deadline later."""
    table = GrantTable(Interner())
    for host, deadline in (("h1", 5.0), ("h0", 3.0), ("h1", 9.0), ("h0", 1.0)):
        table.hold("alice", Right.USE, host, deadline)
    assert table.holders("alice", Right.USE) == [("h1", 9.0), ("h0", 3.0)]
    assert ("alice", Right.USE) in table and ("alice", Right.MANAGE) not in table
    assert table.pop("alice", Right.USE) == [("h1", 9.0), ("h0", 3.0)]
    assert len(table) == 0 and table.pop("alice", Right.USE) == []


def test_grant_table_reuses_the_records_it_frees():
    table = GrantTable(Interner())
    for index in range(100):
        table.hold(f"p{index}", Right.USE, "h0", 1.0)
        table.hold(f"p{index}", Right.USE, "h1", 2.0)
    table.sweep(1.5)  # every h0 holder has expired
    assert table.holders("p7", Right.USE) == [("h1", 2.0)]
    for index in range(50):
        table.pop(f"p{index}", Right.USE)
    records = len(table._next)
    for index in range(100, 250):
        table.hold(f"p{index}", Right.USE, "h2", 3.0)
    assert len(table) == 200 and len(table._next) == records
    table.clear()
    assert len(table) == 0 and ("p7", Right.USE) not in table


def test_grant_table_bytes_per_single_holder_key_are_bounded():
    keys = 20_000
    interner = Interner()
    users = [f"p{index}@d{index % 251}.example.org" for index in range(keys)]
    interner.intern_many(users)
    table = GrantTable(interner)
    table.hold("warm-up", Right.USE, "h0", 1.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for index, user in enumerate(users):
            table.hold(user, Right.USE, "h0", 1_000.0 + index)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Unfiltered: a deadline float or key tuple the caller made counts too.
    per_key = sum(stat.size_diff for stat in after.compare_to(before, "filename")) / keys
    assert len(table) == keys + 1
    assert per_key < BOUND_PER_GRANT_KEY, f"{per_key:.0f} bytes per grant-table key"
