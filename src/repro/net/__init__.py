"""Live service runtime: the paper's protocol over real TCP sockets.

One codebase, two backends.  The protocol strategies in
:mod:`repro.protocols` and the node shells in :mod:`repro.core` are
written against the :class:`~repro.net.transport.Transport` interface;
this package supplies the *socket* implementation of it:

* :mod:`repro.net.transport` — the backend-agnostic interface (the sim
  :class:`~repro.sim.network.Network` is the other implementation);
* :mod:`repro.net.codec` — length-prefixed framing, and the tagged-JSON
  form of every protocol message (fixtures and trace dumps, not the
  wire);
* :mod:`repro.net.codec_bin` — the wire codec: struct-packed messages
  with a per-connection string-interning dictionary;
* :mod:`repro.net.session` — HMAC-SHA256 sealed segments with
  replay-nonce and expiry windows (per the sidecar auth ADR);
* :mod:`repro.net.tcp` — :class:`SocketTransport`, sealed binary
  segments over asyncio TCP protocol callbacks;
* :mod:`repro.net.runtime` — :class:`LiveRuntime`, the wall-clock
  driver that advances a node's private simulation environment in real
  time;
* :mod:`repro.net.cell` — :class:`LiveCell`, an in-process
  M-manager/N-host localhost deployment (the differential-test target);
* :mod:`repro.net.scenario` — barrier-sequenced scenario programs run
  identically through the sim and socket backends;
* :mod:`repro.net.serve` / :mod:`repro.net.load` — the ``repro serve``
  and ``repro load`` CLI entry points.

The package itself exports only the transport interface: importing it
must not pull asyncio machinery into every simulation run.  Import the
socket backend from its module (``from repro.net.cell import LiveCell``).
"""

from __future__ import annotations

from .transport import ReplyTable, Transport, request, retry_until_acked

__all__ = [
    "Transport",
    "ReplyTable",
    "request",
    "retry_until_acked",
]
