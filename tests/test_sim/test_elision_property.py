"""Property test: dead-timer elision never changes event ordering.

The elision machinery (``Timeout.cancel`` + the run loop's dead-entry
skip + the Condition loser-detach) is pure bookkeeping: a cancelled
timer had no waiter and no callbacks, so processing it would have been
a no-op.  The safety property is exact equivalence of the *observable
schedule*: for any protocol-shaped program — request/reply races,
retry-until-acked pacing loops, interrupts — running on the eliding
``Environment`` and on the non-eliding reference below must produce
identical ``(time, actor, happening)`` streams and identical final
clocks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, Interrupt


class NonElidingEnvironment(Environment):
    """The reference engine: dead-timer elision switched off."""

    def __init__(self):
        super().__init__()
        self._elide = False


# Delays drawn from a tiny grid so simultaneous events (the tie-break
# path) occur constantly.
delays = st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0, 3.0])

# One request/reply-shaped round: a "reply" timer races a retry timer,
# exactly the ``messaging.request`` shape.  ``reply_delay > timer_delay``
# means the round times out (the reply fires later, unobserved).
rounds = st.tuples(delays, delays, delays)  # (reply_delay, timer_delay, pause)

# A host: its start offset plus a handful of rounds.
hosts = st.tuples(delays, st.lists(rounds, min_size=1, max_size=4))


def _run(schedule, elide):
    env = Environment() if elide else NonElidingEnvironment()
    log = []

    def host(pid, start, ops):
        yield env.timeout(start)
        for op_index, (reply_delay, timer_delay, pause) in enumerate(ops):
            reply = env.timeout(reply_delay, value=("reply", pid, op_index))
            timer = env.timeout(timer_delay)
            result = yield env.any_of([reply, timer])
            winner = "reply" if reply in result else "timeout"
            log.append((env.now, pid, op_index, winner))
            yield env.timeout(pause)
        log.append((env.now, pid, "done"))

    def pacing(pid, interval, acked):
        # The retry_until_acked shape: a pacing timer repeatedly races
        # the ack event; every losing timer is elision fodder.
        beats = 0
        while not acked.triggered:
            timer = env.timeout(interval)
            yield env.any_of([acked, timer])
            timer.cancel()
            beats += 1
            if beats > 50:  # safety net; unreachable for the grid above
                break
        log.append((env.now, pid, "acked", beats))

    def acker(acked, delay):
        yield env.timeout(delay)
        log.append((env.now, "acker", "fire"))
        acked.succeed()

    def sleeper(pid):
        try:
            yield env.timeout(1000.0)
        except Interrupt as interrupt:
            log.append((env.now, pid, "interrupted", interrupt.cause))

    def interrupter(target, delay):
        yield env.timeout(delay)
        target.interrupt("deadline")

    for pid, (start, ops) in enumerate(schedule):
        env.process(host(pid, start, ops), name=f"host{pid}")
        acked = env.event()
        env.process(pacing(f"pacer{pid}", 1.0 + 0.5 * (pid % 3), acked))
        env.process(acker(acked, start + 2.5))
        target = env.process(sleeper(f"sleeper{pid}"))
        env.process(interrupter(target, start + 1.5))
    env.run()
    return log, env.now, env.dead_pops


@given(st.lists(hosts, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_elision_preserves_event_ordering(schedule):
    with_elision, now_with, dead_pops = _run(schedule, elide=True)
    without_elision, now_without, no_pops = _run(schedule, elide=False)
    assert with_elision == without_elision
    assert now_with == now_without
    # Not vacuous: these schedules race timers constantly, so elision
    # must actually skip entries — and never when disabled.
    assert dead_pops > 0
    assert no_pops == 0
