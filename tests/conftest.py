"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim.engine import Environment
from repro.sim.network import FixedLatency, Network
from repro.sim.partitions import ScriptedConnectivity
from repro.sim.trace import Tracer

# Tier-1 is a function of the code: examples are derived from each test
# itself and no local ``.hypothesis/`` database is read or written, so a
# failure reproduces on every machine.  Loaded here (before pytest's
# configure step) so ``--hypothesis-profile=randomised`` — the slow CI
# job — still overrides it.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomised", settings.get_profile("default"))
settings.load_profile("tier1")


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def tracer(env) -> Tracer:
    return Tracer(env, keep_log=True)


@pytest.fixture
def connectivity() -> ScriptedConnectivity:
    return ScriptedConnectivity()


@pytest.fixture
def network(env, tracer, connectivity) -> Network:
    """Deterministic network: scripted links, fixed 50 ms latency.

    This is the sim implementation of :class:`repro.net.transport.
    Transport`; the socket backend is covered in ``tests/test_net``.
    """
    return Network(
        env,
        connectivity=connectivity,
        latency=FixedLatency(0.05),
        tracer=tracer,
    )
