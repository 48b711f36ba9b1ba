"""The three live workloads: one cell, one load generator, one asyncio loop.

Set-up common to all three: ``LiveCell(n_managers=3, n_hosts=2,
codec="binary")`` with signed manager responses, real loopback TCP
between the five runtimes, ``time_scale=1`` and no injected delay — so
every latency below is processor time plus loopback.  The load generator
is one more ``LiveRuntime`` in the same loop carrying two closed-loop
streams (one per core of the target box).  In-process is deliberate:
``cpu_ms_per_req`` then covers client, hosts and managers, ``req_per_s``
is per core for the whole cell, and the traced run sees every node on
one clock.
"""

from __future__ import annotations

import asyncio
import random
import resource
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.admin import AdminClient
from repro.core.client import UserClient
from repro.core.policy import AccessPolicy
from repro.net.cell import LiveCell
from repro.net.runtime import LiveRuntime

from .spec import Sizing
from .stats import percentile

__all__ = ["LiveBench", "BenchFailure", "principal_name"]

APP = "app"
N_MANAGERS = 3
N_HOSTS = 2
CHECK_QUORUM = 2
#: Te per workload: the steady state never expires inside a window; churn
#: keeps expiry in play beside the revocations.
EXPIRY_BOUND = {"live_hot": 300.0, "live_miss": 300.0, "live_churn": 5.0}
#: Hosts that have not converged on a revoke or add after this long fail the run.
CONVERGE_TIMEOUT_S = 20.0


class BenchFailure(RuntimeError):
    """A correctness oracle failed; the run exits non-zero."""


def principal_name(index: int) -> str:
    """Non-dense principal names, so the binary codec's session dictionary
    is exercised instead of the ``u<i>`` arithmetic path."""
    return f"p{index}@d{index % 251}.example.org"


class _Churn:
    """Victim state shared by live_churn's reader and writer streams."""

    def __init__(self, expiry_bound: float) -> None:
        self.expiry_bound = expiry_bound
        self.victim: Optional[str] = None
        self.phase = "granted"       # granted -> revoking -> adding -> granted
        self.revoked_at = 0.0        # revoke issued
        self.add_accepted_at: Optional[float] = None
        self.denied_at: Dict[str, float] = {}   # host -> first observed denial
        self.allowed_again: set = set()
        self.both_denied = asyncio.Event()
        self.both_allowed = asyncio.Event()

    def begin_revoke(self, victim: str, now: float) -> None:
        self.victim, self.phase, self.revoked_at = victim, "revoking", now
        self.add_accepted_at = None
        self.denied_at.clear()
        self.allowed_again.clear()
        self.both_denied.clear()
        self.both_allowed.clear()

    def judge(self, host: str, sent: float, done: float, allowed: bool) -> Optional[str]:
        """Record a victim read; returns why it is wrong, or None."""
        if self.phase == "revoking":
            if not allowed:
                self.denied_at.setdefault(host, done)
                if len(self.denied_at) == N_HOSTS:
                    self.both_denied.set()
                return None
            if host in self.denied_at:
                return "allowed after this host's first denial, before add was issued"
            if sent > self.revoked_at + self.expiry_bound:
                return "allowed a request sent more than Te after the revoke was issued"
            return None
        if self.phase == "adding":
            if allowed:
                self.allowed_again.add(host)
                if len(self.allowed_again) == N_HOSTS:
                    self.both_allowed.set()
                return None
            if self.add_accepted_at is not None and sent > self.add_accepted_at:
                return "denied a request sent after the add reached its update quorum"
            return None
        return None if allowed else "denied a granted principal"


class LiveBench:
    """One live workload: set-up, measured windows, oracle, counters."""

    #: The load generator's own synchronous steps, wrapped by the traced run.
    TRACED_STEPS = ("_next", "_issue", "_complete")

    def __init__(self, workload: str, size: Sizing, seed: int) -> None:
        self.workload = workload
        self.size = size
        self.rng = random.Random(seed)
        self.policy = AccessPolicy(
            check_quorum=CHECK_QUORUM, expiry_bound=EXPIRY_BOUND[workload]
        )
        self.cell = LiveCell(
            n_managers=N_MANAGERS, n_hosts=N_HOSTS, codec="binary", policy=self.policy
        )
        self.rt = LiveRuntime(self.cell.secret, codec="binary")
        self.admin = AdminClient("bench-admin", self.cell.admin_user)
        self.rt.register(self.admin)
        self.clients = [UserClient(f"bench-c{i}", "") for i in range(2)]
        for client in self.clients:
            self.rt.register(client)
        self.runtimes: List[LiveRuntime] = [*self.cell.runtimes.values(), self.rt]
        self.hosts = [host.address for host in self.cell.hosts]
        self.managers = list(self.cell.manager_addrs)
        self.truth: Dict[str, bool] = {}
        self.pool: List[str] = []
        self._unused: List[str] = []   # live_miss: principals not yet requested
        self._turn = [0, 0]            # per-stream round-robin position
        self.churn = _Churn(self.policy.expiry_bound)
        self.failures: List[str] = []
        # Window state (reset by measure()).
        self._reads: List[Tuple[float, float]] = []    # (done, latency_s)
        self._updates: List[Tuple[float, float]] = []
        self._lags: List[Tuple[float, float]] = []
        self._attempted = 0
        self._failed = 0
        self._window_end = 0.0
        self._writer_busy = False
        self._rss_after = size.rss_after[workload]
        self.peak_rss_mb: Optional[float] = None  # set once rss_after reads are measured

    # -- set-up ------------------------------------------------------------------
    async def setup(self) -> None:
        """Everything before the first measured operation."""
        size = self.size
        if self.workload == "live_miss":
            order = list(range(size.miss_pool))
            self.rng.shuffle(order)
            names = [principal_name(i) for i in order]
            for position, name in enumerate(names):
                granted = position % 10 != 9  # the tenth is never granted: DENY path
                self.truth[name] = granted
                if granted:
                    self.cell.seed_grant(APP, name)
            names.reverse()  # pop() takes them in shuffled order
            self._unused = names
        else:
            picks = self.rng.sample(range(1_000_000), size.hot_pool)
            self.pool = [principal_name(i) for i in picks]
        await self.cell.start()
        await self.rt.start()
        self.rt.set_peers(self.cell.directory)
        for index, name in enumerate(self.pool):
            manager = self.managers[index % N_MANAGERS]
            result = await self.rt.run_process(self.admin.add(manager, APP, name))
            if not result.accepted:
                raise BenchFailure(f"grant of {name} via {manager} failed: {result.reason}")
            self.truth[name] = True
        warmup = size.miss_warmup if self.workload == "live_miss" else size.hot_warmup
        await self._run_reads(count=warmup)
        if self.failures:
            raise BenchFailure(f"warm-up: {self.failures[0]}")

    async def close(self) -> None:
        await self.rt.stop()
        await self.cell.stop()

    # -- the closed loop -----------------------------------------------------------
    def _next(self, stream: int) -> Tuple[str, str]:
        """The (principal, host) a stream requests next."""
        turn = self._turn[stream]
        self._turn[stream] = turn + 1
        if self.workload == "live_miss":
            if not self._unused:
                raise BenchFailure("live_miss ran out of unused principals")
            return self._unused.pop(), self.hosts[turn % N_HOSTS]
        if self.workload == "live_churn" and stream == 0:
            # victim@h0, pool@h1, victim@h1, pool@h0, ...
            host = self.hosts[((turn + 1) // 2) % N_HOSTS]
            victim = self.churn.victim
            if turn % 2 == 0 and victim is not None:
                return victim, host
            user = self.pool[(turn // 2) % len(self.pool)]
            if user == victim:
                user = self.pool[(turn // 2 + 1) % len(self.pool)]
            return user, host
        # Each stream sweeps the whole pool x hosts product, alternating
        # hosts every request; the two streams start half a sweep apart.
        size = len(self.pool)
        slot = (turn + stream * size) % (size * N_HOSTS)
        return self.pool[slot % size], self.hosts[(slot + slot // size) % N_HOSTS]

    def _issue(self, client: UserClient, user: str, host: str) -> Tuple[Any, float]:
        client.user_id = user
        sent = time.perf_counter()
        future = self.rt.run_process(client.invoke(host, APP, {"n": self._attempted}))
        return future, sent

    def _complete(self, user: str, host: str, sent: float, result: Any) -> None:
        done = time.perf_counter()
        wrong: Optional[str] = None
        if result.timed_out:
            wrong = "timed out"
        elif user == self.churn.victim:
            wrong = self.churn.judge(host, sent, done, result.allowed)
        elif result.allowed != self.truth[user]:
            wrong = f"allowed={result.allowed}, ground truth {self.truth[user]}"
        if done <= self._window_end or self._window_end == 0.0:
            self._attempted += 1
            if wrong is None:
                self._reads.append((done, done - sent))
                if len(self._reads) == self._rss_after:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                self._failed += 1
        if wrong is not None:
            self.failures.append(f"read {user}@{host}: {wrong}")

    async def _reader(self, stream: int, count: Optional[int] = None) -> None:
        client = self.clients[stream]
        while not self.failures:
            if count is not None:
                if self._attempted >= count:
                    return
            elif time.perf_counter() >= self._window_end and not self._writer_busy:
                return
            user, host = self._next(stream)
            future, sent = self._issue(client, user, host)
            result = await future  # the client's own request timeout bounds this
            self._complete(user, host, sent, result)

    async def _update(self, grant: bool, manager: str, victim: str) -> float:
        """One admin operation; returns when it was accepted."""
        operate = self.admin.add if grant else self.admin.revoke
        issued = time.perf_counter()
        result = await self.rt.run_process(operate(manager, APP, victim))
        done = time.perf_counter()
        self._attempted += 1
        if result.accepted:
            self._updates.append((done, done - issued))
        else:
            self._failed += 1
            self.failures.append(
                f"{'add' if grant else 'revoke'} {victim} via {manager}: "
                f"{result.reason or 'not accepted'}"
            )
        return done

    async def _writer(self) -> None:
        """revoke -> both hosts deny -> add -> both hosts allow -> next victim."""
        churn = self.churn
        cycle = 0
        while time.perf_counter() < self._window_end and not self.failures:
            victim = self.pool[cycle % len(self.pool)]
            manager = self.managers[cycle % N_MANAGERS]
            self._writer_busy = True
            try:
                churn.begin_revoke(victim, time.perf_counter())
                await self._update(False, manager, victim)
                await asyncio.wait_for(churn.both_denied.wait(), CONVERGE_TIMEOUT_S)
                lag_end = max(churn.denied_at.values())
                self._lags.append((lag_end, lag_end - churn.revoked_at))
                churn.phase = "adding"
                churn.add_accepted_at = await self._update(True, manager, victim)
                await asyncio.wait_for(churn.both_allowed.wait(), CONVERGE_TIMEOUT_S)
            except asyncio.TimeoutError:
                self._failed += 1
                self.failures.append(f"cycle {cycle} on {victim}: hosts never converged")
            finally:
                churn.victim, churn.phase = None, "granted"
                self._writer_busy = False
            cycle += 1

    async def _run_reads(self, count: int) -> None:
        """Fixed-count warm-up: scales with speed instead of being a sleep."""
        self._attempted = 0
        self._window_end = 0.0
        await asyncio.gather(*(self._reader(s, count=count) for s in range(2)))
        self._reads.clear()

    # -- measurement ---------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Public counters summed over the cell (and the generator's runtime)."""
        traced: Counter = Counter()
        for runtime in self.runtimes:
            traced.update(runtime.tracer.counts())
        wire: Counter = Counter()
        rejected = 0
        for runtime in self.runtimes:
            transport = runtime.transport
            wire.update(transport.wire)
            wire["messages_sent"] += transport.messages_sent
            wire["messages_dropped"] += transport.messages_dropped
            rejected += transport.frames_rejected + sum(transport.auth.rejected.values())
        stats: Counter = Counter()
        for node in (*self.cell.hosts, *self.cell.managers):
            stats.update(node.stats)
        return {
            "checks": stats["checks"],
            "hits": traced["cache_hit"],
            "misses": traced["cache_miss"] + traced["cache_expired"],
            "answers": stats["grants"] + stats["denials"],
            "updates": traced["update_issued"],
            "messages": wire["messages_sent"],
            "dropped": wire["messages_dropped"],
            "bytes": wire["bytes_sent"],
            "segments": wire["segments_sent"],
            "segment_msgs": wire["segment_msgs_sent"],
            "rejected": rejected,
            "cache_entries": sum(len(host.cache_for(APP)) for host in self.cell.hosts),
            "grant_table_entries": sum(
                len(manager._grant_table[APP]) for manager in self.cell.managers
            ),
        }

    async def measure(self, window_s: float) -> Dict[str, Any]:
        """One measured window, cut into slices after the fact."""
        self._reads, self._updates, self._lags = [], [], []
        self._attempted = self._failed = 0
        n = self.size.slices
        marks: List[Dict[str, float]] = []

        def mark() -> None:
            snapshot = self.counters()
            snapshot["t"] = time.perf_counter()
            snapshot["cpu"] = time.process_time()
            marks.append(snapshot)

        async def ticker(start: float) -> None:
            for k in range(1, n):
                await asyncio.sleep(max(0.0, start + k * window_s / n - time.perf_counter()))
                mark()

        mark()
        start = marks[0]["t"]
        self._window_end = start + window_s
        tasks = [self._reader(0)]
        tasks.append(self._writer() if self.workload == "live_churn" else self._reader(1))
        tick = asyncio.ensure_future(ticker(start))
        try:
            await asyncio.gather(*tasks)
        finally:
            tick.cancel()
        mark()
        if self.failures:  # the streams stop at the first wrong answer
            raise BenchFailure("; ".join(self.failures[:5]))
        if len(marks) != n + 1:
            raise BenchFailure(f"window closed with {len(marks) - 1} of {n} slices")
        return self._summarise(marks)

    def _summarise(self, marks: List[Dict[str, float]]) -> Dict[str, Any]:
        slices: List[Dict[str, float]] = []
        for lo, hi in zip(marks, marks[1:]):
            reads, updates, lags = (
                sorted(value for done, value in rows if lo["t"] < done <= hi["t"])
                for rows in (self._reads, self._updates, self._lags)
            )
            wall = hi["t"] - lo["t"]
            row = {
                "wall_s": wall,
                "reads": len(reads),
                "req_per_s": len(reads) / wall,
                "req_p50_ms": percentile(reads, 50) * 1e3,
                "req_p90_ms": percentile(reads, 90) * 1e3,
                "req_p99_ms": percentile(reads, 99) * 1e3,
                "cpu_ms_per_req": (hi["cpu"] - lo["cpu"]) * 1e3 / max(len(reads), 1),
                "cpu_util": (hi["cpu"] - lo["cpu"]) / wall,
                "msgs_per_req": (hi["messages"] - lo["messages"]) / max(len(reads), 1),
                "wire_bytes_per_req": (hi["bytes"] - lo["bytes"]) / max(len(reads), 1),
            }
            if self.workload == "live_churn":
                row["updates"] = len(updates)
                row["lag_samples"] = len(lags)
                row["update_p50_ms"] = percentile(updates, 50) * 1e3
                row["revoke_lag_p50_ms"] = percentile(lags, 50) * 1e3
                row["revoke_lag_p90_ms"] = percentile(lags, 90) * 1e3
            slices.append(row)
        first, last = marks[0], marks[-1]
        return {
            "slices": slices,
            "wall_s": last["t"] - first["t"],
            "cpu_s": last["cpu"] - first["cpu"],
            "reads": len(self._reads),
            "ops_attempted": self._attempted,
            "ops_failed": self._failed,
            "lag_samples": len(self._lags),
            "counters": {k: last[k] - first[k] for k in first if k not in ("t", "cpu")},
            "totals": {k: last[k] for k in ("rejected", "cache_entries", "grant_table_entries")},
        }
