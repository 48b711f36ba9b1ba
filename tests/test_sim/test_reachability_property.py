"""Property test for the epoch-cached reachability fast path.

``Network.reachable`` answers through a cached flat component table
(or a per-pair memo) that is invalidated by the connectivity model's
topology epoch.  The safety property is exact equivalence: after *any*
interleaving of partition / heal / link-toggle / crash / recover
transitions, the cached answer for every pair equals a fresh,
cache-free recomputation from the model and the nodes' up state.
A missed ``bump_epoch`` on any transition shows up here as a stale
component table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Node
from repro.sim.partitions import ScriptedConnectivity

N_NODES = 6
ADDRESSES = [f"n{i}" for i in range(N_NODES)]

node_indexes = st.integers(min_value=0, max_value=N_NODES - 1)

# One topology transition: every mutation the scripted model (plus the
# crash/recovery layer) can perform between messages.
operations = st.one_of(
    st.tuples(st.just("set_down"), node_indexes, node_indexes),
    st.tuples(st.just("set_up"), node_indexes, node_indexes),
    st.tuples(st.just("isolate"), node_indexes, node_indexes),
    st.tuples(st.just("reconnect"), node_indexes, node_indexes),
    st.tuples(
        st.just("partition"),
        st.lists(
            st.booleans(), min_size=N_NODES, max_size=N_NODES
        ),
        st.just(0),
    ),
    st.tuples(st.just("heal"), st.just(0), st.just(0)),
    st.tuples(st.just("crash"), node_indexes, st.just(0)),
    st.tuples(st.just("recover"), node_indexes, st.just(0)),
)


def _build():
    env = Environment()
    connectivity = ScriptedConnectivity()
    network = Network(env, connectivity=connectivity, latency=FixedLatency(0.01))
    nodes = [network.register(Node(address)) for address in ADDRESSES]
    return network, connectivity, nodes


def _fresh_reachable(connectivity, nodes, i: int, j: int) -> bool:
    """Ground truth, bypassing every cache layer."""
    a, b = nodes[i], nodes[j]
    if not a.up or not b.up:
        return False
    return i == j or connectivity.is_reachable(a.address, b.address)


def _apply(network, connectivity, nodes, op) -> None:
    name, x, y = op
    if name == "set_down":
        if x != y:
            connectivity.set_down(ADDRESSES[x], ADDRESSES[y])
    elif name == "set_up":
        if x != y:
            connectivity.set_up(ADDRESSES[x], ADDRESSES[y])
    elif name == "isolate":
        connectivity.isolate(
            ADDRESSES[x], [a for a in ADDRESSES if a != ADDRESSES[x]]
        )
    elif name == "reconnect":
        connectivity.reconnect(
            ADDRESSES[x], [a for a in ADDRESSES if a != ADDRESSES[x]]
        )
    elif name == "partition":
        groups = [
            [a for a, side in zip(ADDRESSES, x) if side],
            [a for a, side in zip(ADDRESSES, x) if not side],
        ]
        connectivity.partition([g for g in groups if g])
    elif name == "heal":
        connectivity.heal()
    elif name == "crash":
        if nodes[x].up:
            nodes[x].crash()
    elif name == "recover":
        if not nodes[x].up:
            nodes[x].recover()
    else:  # pragma: no cover - strategy and dispatch must stay in sync
        raise AssertionError(f"unknown operation {name!r}")


class TestReachabilityCacheProperty:
    @given(schedule=st.lists(operations, min_size=0, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_cached_reachable_equals_fresh_recomputation(self, schedule):
        network, connectivity, nodes = _build()
        for op in schedule:
            _apply(network, connectivity, nodes, op)
            # Query after every transition: interleaving reads between
            # writes is exactly what ages a stale cache into a wrong
            # answer.
            for i in range(N_NODES):
                for j in range(N_NODES):
                    expected = _fresh_reachable(connectivity, nodes, i, j)
                    actual = nodes[i].up and nodes[j].up and (
                        i == j or network._connected(ADDRESSES[i], ADDRESSES[j]))
                    assert actual == expected, (
                        f"{ADDRESSES[i]}->{ADDRESSES[j]}: cached {actual}, "
                        f"fresh {expected} after {op}"
                    )
