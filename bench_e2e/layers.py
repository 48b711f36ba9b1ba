"""Which public entry points the traced run wraps, as which layer.

Span names are ``<layer>:<function>`` with the layer named after the
``src/repro`` module that owns the code, so a layer's self time is the
sum over its span names.  Wrapping is done on the class (several of the
classes use ``__slots__``, and links create their codecs lazily), and
every patch is undone when the traced window ends.

Two seams are private because the code has no public one there:
``ApplicationHost._serve`` (the wrapper's serving path) and the
managers' ``_grant_table`` (read once for its size).
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.auth.identity import Authenticator, Principal, SignedMessage
from repro.core.admin import AdminClient
from repro.core.cache import ACLCache
from repro.core.client import UserClient
from repro.core.host import AccessControlHost
from repro.core.manager import AccessControlManager
from repro.core.messages import (
    AdminRequest,
    AdminResponse,
    AppRequest,
    AppResponse,
    QueryRequest,
    QueryResponse,
    RevokeNotify,
    RevokeNotifyAck,
    UpdateAck,
    UpdateMsg,
)
from repro.core.wrapper import ApplicationHost
from repro.net.codec import FrameReader, decode_message, encode_message
from repro.net.codec_bin import BinaryDecoder, BinaryEncoder
from repro.net.runtime import LiveRuntime
from repro.net.session import SessionAuth
from repro.net.tcp import SocketTransport
from repro.protocols.admin import AdminService
from repro.protocols.combiner import HighestVersionCombiner, ResponseCombiner
from repro.protocols.dissemination import DisseminationStrategy
from repro.protocols.pipeline import VerificationPipeline
from repro.protocols.planner import ParallelPlanner, SequentialPlanner
from repro.protocols.query import QueryAnswerer
from repro.protocols.revocation import RevocationForwarder
from repro.sim.network import Network
from repro.sim.partitions import PairEpochModel
from repro.workloads.generators import AuthorizationOracle
from repro.workloads.population import UserPopulation

from .stats import percentile
from .trace import SpanRecorder

__all__ = ["LayerProbe", "median_ms"]

#: How many encoded messages the traced run keeps for the offline JSON replay.
_JSON_SAMPLE = 4000

#: Forwards of one revocation round land within milliseconds of each
#: other; the same user is not revoked again for hundreds of them.
_ROUND_NS = 250_000_000


def median_ms(samples_ns: List[int]) -> float:
    return percentile(sorted(samples_ns), 50) / 1e6


def _message_key(message: Any, sender: str, receiver: str) -> Optional[tuple]:
    """Correlation key shared by a request and its replies, both directions."""
    if isinstance(message, SignedMessage):
        message = message.payload
    if isinstance(message, AppRequest):
        return ("app", sender, message.request_id)
    if isinstance(message, AppResponse):
        return ("app", receiver, message.request_id)
    if isinstance(message, QueryRequest):
        return ("query", sender, message.query_id)
    if isinstance(message, QueryResponse):
        return ("query", receiver, message.query_id)
    if isinstance(message, AdminRequest):
        return ("admin", sender, message.request_id)
    if isinstance(message, AdminResponse):
        return ("admin", receiver, message.request_id)
    if isinstance(message, UpdateMsg):
        return ("update", message.update.update_id)
    if isinstance(message, UpdateAck):
        return ("update", message.update_id)
    if isinstance(message, RevokeNotify):
        return ("notify", sender, message.notify_id)
    if isinstance(message, RevokeNotifyAck):
        return ("notify", receiver, message.notify_id)
    return None


_LAST_REPLY = (AppResponse, QueryResponse, AdminResponse, RevokeNotifyAck)


class LayerProbe:
    """Installs the span wrappers and turns spans + counters into metrics."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.rec = recorder
        self._op_of: Dict[tuple, int] = {}
        self.sent_types: Counter = Counter()
        self.encoded_bytes = 0
        self.encoders: Dict[int, BinaryEncoder] = {}
        self.json_sample: List[Any] = []
        self.revokes_issued = 0
        self._issued_at: Dict[str, int] = {}
        self.quorum_waits_ns: List[int] = []
        self._forward_at: Dict[str, int] = {}
        self._flushed: Dict[str, set] = {}
        self.forward_to_flush_ns: List[int] = []
        self._host_of_cache: Dict[int, str] = {}

    # -- op propagation ---------------------------------------------------------
    def _on_send(self, _result: Any, _transport: Any, src: str, dst: str, message: Any) -> None:
        payload = message.payload if isinstance(message, SignedMessage) else message
        self.sent_types[type(payload).__name__] += 1
        op = self.rec.current_op()
        if op is not None:
            key = _message_key(message, src, dst)
            if key is not None:
                self._op_of[key] = op

    def _op_from_delivery(self, node: Any, src: str, message: Any) -> Optional[int]:
        key = _message_key(message, src, node.address)
        if key is None:
            return None
        payload = message.payload if isinstance(message, SignedMessage) else message
        if isinstance(payload, _LAST_REPLY):
            return self._op_of.pop(key, None)
        return self._op_of.get(key)

    def _op_inherit_or_new(self, *_args: Any) -> int:
        return self.rec.current_op() or self.rec.new_op()

    # -- observers ----------------------------------------------------------------
    def _on_encode(self, result: bytes, encoder: BinaryEncoder, message: Any) -> None:
        self.encoded_bytes += len(result)
        self.encoders.setdefault(id(encoder), encoder)
        if len(self.json_sample) < _JSON_SAMPLE:
            self.json_sample.append(message)

    def _on_issue(self, handle: Any, _strategy: Any, _manager: Any, _app: str,
                  _user: str, _right: Any, grant: bool) -> None:
        self._issued_at[handle.update.update_id] = time.perf_counter_ns()
        if not grant:
            self.revokes_issued += 1
        if handle.quorum.triggered:  # single-manager quorum: reached inside issue
            self._issued_at.pop(handle.update.update_id, None)

    def _on_progress(self, _result: Any, _strategy: Any, _manager: Any, pending: Any) -> None:
        if pending.quorum_event.triggered:
            issued = self._issued_at.pop(pending.update.update_id, None)
            if issued is not None:
                self.quorum_waits_ns.append(time.perf_counter_ns() - issued)

    def _on_forward(self, _result: Any, _forwarder: Any, _manager: Any, update: Any) -> None:
        # Every manager that applies a revocation forwards it; the first
        # forward of a round starts the clock.  A forward long after the
        # last one is the user's next revocation, not a straggler.
        now = time.perf_counter_ns()
        started = self._forward_at.get(update.user)
        if started is None or now - started > _ROUND_NS:
            self._forward_at[update.user] = now
            self._flushed[update.user] = set()

    def _on_flush(self, _removed: int, cache: ACLCache, user: str, *_right: Any) -> None:
        forwarded = self._forward_at.get(user)
        host = self._host_of_cache.get(id(cache))
        if forwarded is None or host is None or host in self._flushed[user]:
            return
        self._flushed[user].add(host)
        self.forward_to_flush_ns.append(time.perf_counter_ns() - forwarded)

    # -- installation -----------------------------------------------------------------
    def _install_protocol(self, hosts: List[AccessControlHost]) -> None:
        """The layers both backends share: core, protocols, auth."""
        rec = self.rec
        for host in hosts:
            for cache in host.caches.values():
                self._host_of_cache[id(cache)] = host.address
        rec.wrap_call(ApplicationHost, "handle_message", "core.wrapper:handle_message",
                      op_from=self._op_from_delivery)
        rec.wrap_generator(ApplicationHost, "_serve", "core.wrapper:serve")
        rec.wrap_generator(AccessControlHost, "check_access", "core.wrapper:check_access",
                           op_from=self._op_inherit_or_new)
        rec.wrap_generator(VerificationPipeline, "check", "protocols.pipeline:check")
        for planner in (ParallelPlanner, SequentialPlanner):
            rec.wrap_generator(planner, "run_round", "protocols.planner:run_round")
        rec.wrap_call(ResponseCombiner, "round_complete", "protocols.combiner:round_complete")
        rec.wrap_call(HighestVersionCombiner, "combine", "protocols.combiner:combine")
        rec.wrap_call(ACLCache, "probe", "core.cache:probe")
        rec.wrap_call(ACLCache, "store", "core.cache:store")
        rec.wrap_call(ACLCache, "flush", "core.cache:flush", observe=self._on_flush)
        rec.wrap_call(AccessControlManager, "handle_message", "core.manager:handle_message",
                      op_from=self._op_from_delivery)
        rec.wrap_call(QueryAnswerer, "answer", "protocols.query:answer")
        rec.wrap_call(Principal, "sign", "auth:sign")
        rec.wrap_call(Authenticator, "authenticate", "auth:verify")
        rec.wrap_call(AdminService, "handle_request", "protocols.dissemination:admin_request")
        rec.wrap_generator(AdminService, "confirm", "protocols.dissemination:admin_confirm")
        rec.wrap_call(DisseminationStrategy, "issue", "protocols.dissemination:issue",
                      observe=self._on_issue)
        rec.wrap_generator(DisseminationStrategy, "disseminate",
                           "protocols.dissemination:disseminate")
        rec.wrap_call(DisseminationStrategy, "on_ack", "protocols.dissemination:on_ack")
        rec.wrap_call(DisseminationStrategy, "check_progress",
                      "protocols.dissemination:check_progress", observe=self._on_progress)
        rec.wrap_call(RevocationForwarder, "forward", "protocols.revocation:forward",
                      observe=self._on_forward)
        rec.wrap_generator(RevocationForwarder, "notify", "protocols.revocation:notify")

    def install_live(self, bench: Any) -> None:
        rec = self.rec
        self._install_protocol(bench.cell.hosts)
        for runtime in bench.runtimes:
            rec.wrap_call(runtime.env, "run", "net.runtime:env_run")
        for attr in ("deliver", "call_soon", "run_process"):
            rec.wrap_call(LiveRuntime, attr, f"net.runtime:{attr}")
        rec.wrap_call(SocketTransport, "send", "net.tcp:send", observe=self._on_send)
        rec.wrap_call(SocketTransport, "flush", "net.tcp:flush")
        rec.wrap_call(FrameReader, "feed", "net.tcp:frame_feed")
        for attr in ("seal", "open", "seal_segment", "open_segment"):
            rec.wrap_call(SessionAuth, attr, f"net.session:{attr}")
        rec.wrap_call(BinaryEncoder, "encode", "net.codec_bin:encode", observe=self._on_encode)
        rec.wrap_call(BinaryDecoder, "decode", "net.codec_bin:decode")
        rec.wrap_generator(UserClient, "invoke", "core.client:invoke")
        rec.wrap_call(UserClient, "handle_message", "core.client:handle_message",
                      op_from=self._op_from_delivery)
        rec.wrap_generator(AdminClient, "add", "core.client:admin_add")
        rec.wrap_generator(AdminClient, "revoke", "core.client:admin_revoke")
        rec.wrap_call(AdminClient, "handle_message", "core.client:admin_handle_message",
                      op_from=self._op_from_delivery)
        for attr in bench.TRACED_STEPS:
            rec.wrap_call(bench, attr, f"core.client:loadgen{attr}")

    def install_sim(self, scenario: Any) -> None:
        rec = self.rec
        self._install_protocol(scenario.system.hosts)
        rec.wrap_call(Network, "send", "sim.network:send", observe=self._on_send)
        rec.wrap_call(Network, "send_many", "sim.network:send_many")
        rec.wrap_call(Network, "multicast", "sim.network:multicast")
        rec.wrap_call(PairEpochModel, "is_reachable", "sim.partitions:is_reachable")
        rec.wrap_call(PairEpochModel, "component_table", "sim.partitions:component_table")
        rec.wrap_call(PairEpochModel, "bump_epoch", "sim.partitions:bump_epoch")
        rec.wrap_call(UserPopulation, "sample", "workloads:sample")
        rec.wrap_call(AuthorizationOracle, "is_authorized", "workloads:is_authorized")
        rec.wrap_call(AuthorizationOracle, "violation", "workloads:violation")
        rec.wrap_call(scenario.access, "on_decision", "workloads:on_decision")

    # -- metrics ------------------------------------------------------------------------
    def _us(self, layer: str, per: float) -> float:
        return self.rec.layer_self_ns(layer) / 1e3 / per if per else 0.0

    def _per_call_us(self, name: str) -> float:
        stat = self.rec.stats.get(name)
        return stat.busy_ns / 1e3 / stat.count if stat and stat.count else 0.0

    def _count(self, *names: str) -> int:
        return sum(self.rec.stats[n].count for n in names if n in self.rec.stats)

    def _ops(self, name: str) -> int:
        stat = self.rec.stats.get(name)
        return stat.ops if stat else 0

    def protocol_metrics(self, reqs: int, counts: Dict[str, float]) -> Dict[str, float]:
        """Metrics of the layers both backends share.

        ``counts`` are counter deltas over the traced window: ``checks``,
        ``hits``, ``misses``, ``answers``, ``updates``, ``check_quorum``.
        """
        rec = self.rec
        rounds = self._ops("protocols.planner:run_round")
        answers = counts["answers"]
        updates = counts["updates"]
        manager_msgs = self._count("core.manager:handle_message")
        dissemination_msgs = self.sent_types["UpdateMsg"] + self.sent_types["UpdateAck"]
        walls = rec.stats.get("protocols.planner:run_round")
        metrics = {
            "core.wrapper.self_us_per_req": self._us("core.wrapper", reqs),
            "protocols.pipeline.self_us_per_check": self._us("protocols.pipeline", counts["checks"]),
            "protocols.pipeline.hit_ratio": counts["hits"] / counts["checks"] if counts["checks"] else 0.0,
            "protocols.pipeline.rounds_per_miss": rounds / counts["misses"] if counts["misses"] else 0.0,
            "core.cache.probe_us": self._per_call_us("core.cache:probe"),
            "core.cache.store_us": self._per_call_us("core.cache:store"),
            "core.cache.flush_us": self._per_call_us("core.cache:flush"),
            "protocols.planner.self_us_per_round": self._us("protocols.planner", rounds),
            "protocols.planner.round_wait_p50_ms": median_ms(walls.walls_ns) if walls else 0.0,
            "protocols.combiner.self_us_per_round": self._us("protocols.combiner", rounds),
            "protocols.combiner.used_response_ratio": (
                counts["check_quorum"] * rounds / answers if answers else 0.0
            ),
            "protocols.query.self_us_per_answer": self._us("protocols.query", answers),
            "protocols.query.answers_per_req": answers / reqs if reqs else 0.0,
            "core.manager.self_us_per_msg": self._us("core.manager", manager_msgs),
            "auth.sign_us": self._per_call_us("auth:sign"),
            "auth.verify_us": self._per_call_us("auth:verify"),
            "auth.signs_per_req": self._count("auth:sign") / reqs if reqs else 0.0,
            "auth.verifies_per_req": self._count("auth:verify") / reqs if reqs else 0.0,
            "protocols.dissemination.self_us_per_update": self._us("protocols.dissemination", updates),
            "protocols.dissemination.msgs_per_update": dissemination_msgs / updates if updates else 0.0,
            "protocols.dissemination.quorum_wait_p50_ms": median_ms(self.quorum_waits_ns),
            "protocols.revocation.notifies_per_revoke": (
                self.sent_types["RevokeNotify"] / self.revokes_issued if self.revokes_issued else 0.0
            ),
            "protocols.revocation.forward_to_flush_p50_ms": median_ms(self.forward_to_flush_ns),
        }
        return metrics

    def live_metrics(self, reqs: int) -> Dict[str, float]:
        encodes = self._count("net.codec_bin:encode")
        macs = self._count(*(f"net.session:{a}" for a in ("seal", "open", "seal_segment", "open_segment")))
        json_us, json_bytes = self._json_replay()
        return {
            "net.runtime.passes_per_req": self._count("net.runtime:env_run") / reqs,
            "net.runtime.self_us_per_req": self._us("net.runtime", reqs),
            "net.tcp.self_us_per_req": self._us("net.tcp", reqs),
            "net.session.macs_per_req": macs / reqs,
            "net.session.self_us_per_req": self._us("net.session", reqs),
            "net.codec_bin.encode_us_per_msg": self._per_call_us("net.codec_bin:encode"),
            "net.codec_bin.decode_us_per_msg": self._per_call_us("net.codec_bin:decode"),
            "net.codec_bin.bytes_per_msg": self.encoded_bytes / encodes if encodes else 0.0,
            "net.codec_bin.dict_entries": float(
                sum(encoder.dictionary_size for encoder in self.encoders.values())
            ),
            "net.codec.json_us_per_msg": json_us,
            "net.codec.json_bytes_per_msg": json_bytes,
            "core.client.self_us_per_req": self._us("core.client", reqs),
        }

    def sim_metrics(self, checks: int, messages: int) -> Dict[str, float]:
        return {
            "sim.network.self_us_per_msg": self._us("sim.network", messages),
            "sim.partitions.self_us_per_msg": self._us("sim.partitions", messages),
            "workloads.self_us_per_check": self._us("workloads", checks),
        }

    def _json_replay(self) -> tuple:
        """The recorded message mix through the JSON codec, offline."""
        if not self.json_sample:
            return 0.0, 0.0
        start = time.perf_counter_ns()
        size = 0
        for message in self.json_sample:
            blob = encode_message(message)
            size += len(blob)
            decode_message(blob)
        elapsed = time.perf_counter_ns() - start
        n = len(self.json_sample)
        return elapsed / 1e3 / n, size / n
