"""Property test: protocol-shaped schedules are one deterministic stream.

The engine's contract is that entries run in exactly the ``(time,
eid)`` total order, and that dead-timer elision never changes what is
observed.  This test pins both differentially: random protocol-shaped
schedules — request/reply timer races (cancel churn), batched
``send_many`` multicast fan-outs, zero-delay self-reschedules, and
far-future lease timers that usually die unobserved — are run with
dead-timer elision on and off (``NonElidingEnvironment`` is the
reference), and both runs must produce the identical ``(time, actor,
happening)`` stream and final clock.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.node import Node

from .test_elision_property import NonElidingEnvironment

# A tiny delay grid so simultaneous events (the eid tie-break path)
# occur constantly; 0.0 exercises same-tick inserts during a drain.
delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.5, 2.0])

# One request/reply round per tuple: (reply_delay, timer_delay, pause).
rounds = st.tuples(delays, delays, delays)

# A host: start offset, its rounds, and a far-future lease delay (the
# lease usually gets cancelled).
hosts = st.tuples(
    delays,
    st.lists(rounds, min_size=1, max_size=3),
    st.sampled_from([1e4, 1e6, 5e6]),
)

ADDRESSES = ("n0", "n1", "n2", "n3")


class _Recorder(Node):
    def __init__(self, address, log):
        super().__init__(address)
        self._log = log

    def handle_message(self, src, message):
        self._log.append((self.env.now, self.address, src, message))


def _run(schedule, elide):
    env = Environment() if elide else NonElidingEnvironment()
    log = []
    network = Network(env, latency=FixedLatency(0.05))
    nodes = [_Recorder(address, log) for address in ADDRESSES]
    for node in nodes:
        network.register(node)

    def host(pid, start, ops, lease_delay):
        # A far-future lease timer.  When the host finishes its rounds
        # first, the lease is cancelled — a dead entry popped (or
        # elided) deep in the future.
        lease = env.timeout(lease_delay)
        yield env.timeout(start)
        for op_index, (reply_delay, timer_delay, pause) in enumerate(ops):
            reply = env.timeout(reply_delay, value=("reply", pid, op_index))
            timer = env.timeout(timer_delay)
            result = yield env.any_of([reply, timer])
            winner = "reply" if reply in result else "timeout"
            log.append((env.now, pid, op_index, winner))
            # Batched fan-out at the current instant: every peer gets a
            # distinct payload through one scheduler insertion.
            src = nodes[pid % len(nodes)]
            src.send_many(
                [
                    (dst, (pid, op_index, i))
                    for i, dst in enumerate(ADDRESSES)
                    if dst != src.address
                ]
            )
            yield env.timeout(pause)
        log.append((env.now, pid, "done"))
        lease.cancel()

    def spinner(pid, beats):
        # Zero-delay self-reschedule: same-tick entries queued while
        # the tick is being drained.
        for beat in range(beats):
            yield env.timeout(0.0)
            log.append((env.now, pid, "spin", beat))

    for pid, (start, ops, lease_delay) in enumerate(schedule):
        env.process(host(pid, start, ops, lease_delay), name=f"host{pid}")
        env.process(spinner(f"spinner{pid}", 2 + pid % 3))
    env.run()
    return log, env.now, env.dead_pops


@given(st.lists(hosts, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_elision_never_changes_the_schedule(schedule):
    reference, now_reference, dead_reference = _run(schedule, elide=False)
    log, now, dead_pops = _run(schedule, elide=True)
    assert log == reference
    assert now == now_reference
    assert dead_reference == 0
    # Every schedule cancels at least its leases or race losers.
    assert dead_pops > 0
