"""What a served miss leaves behind in a live cell.

A cell keeps per-principal state by design (hosts cache grants,
managers remember whom they granted to), but each principal's name
should be one string in the process, the one the cell's
:class:`~repro.core.ids.Interner` holds, however many messages and
connections carried it.  These guards build a cell over real sockets,
serve distinct misses through a client on its own runtime (so every
name a node sees came off the wire) and check:

(a) the bytes those misses leave allocated stay under a bound;
(b) the host's cache entries and the managers' grant-table keys name
    their users by the interner's own strings;
(c) a decoder that knows the interner never grows it;
(d) the segment layer's name table stays bounded.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc

import pytest

from repro.core.client import UserClient
from repro.core.messages import Ping
from repro.core.policy import AccessPolicy
from repro.net.cell import LiveCell
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.net.session import SessionAuth
from repro.protocols.query import _hold

APP = "app"
SEEDED = 2000
WARM_UP = 200
MISSES = 1000
#: Retained bytes per served miss, allocated by ``repro`` code.  The
#: count is deterministic per interpreter: with a separate copy of each
#: name per decode and a dict of holders per grant-table key it read
#: 2 089 / 1 984 / 1 904 on CPython 3.10 / 3.11 / 3.12, and with one
#: copy per principal 1 303 / 1 197 / 1 189.
BOUND_PER_MISS = 1600


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
    granted = [user for manager in cell.managers for user, _ in manager._grant_table[APP]]
    assert len(cached) == MISSES + WARM_UP
    assert len(granted) == 2 * (MISSES + WARM_UP)  # C = 2 answers per miss
    assert all(map(own, cached)), "a cache entry holds its own copy of the user's name"
    assert all(map(own, granted)), "a grant-table key holds its own copy of the user's name"


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
    holders = _hold(_hold(_hold((), "h1", 5.0), "h0", 3.0), "h1", 9.0)
    assert holders == ("h1", 9.0, "h0", 3.0)
    assert _hold(holders, "h0", 1.0) is holders
