"""Docstring examples must actually run.

A curated set of modules whose module-level docstrings contain
executable examples; drift between docs and behaviour fails here.
"""

from __future__ import annotations

import doctest

import pytest

import repro.sim.clock
import repro.sim.engine
import repro.sim.rng

MODULES = [
    repro.sim.engine,
    repro.sim.clock,
    repro.sim.rng,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctests"
    assert results.failed == 0
