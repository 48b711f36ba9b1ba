"""Every name a ``repro`` module exports through ``__all__`` resolves.

A subtraction that deletes a class but leaves its name in a package's
``__all__`` breaks ``from repro.x import *`` and any caller that
imports the name from the package; this catches that for every module,
including :mod:`repro.net`'s lazily imported names.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
import repro.net


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _module_names())
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_net_lazy_names_come_from_their_submodules():
    lazy = repro.net._LAZY
    assert set(lazy) <= set(repro.net.__all__)
    for name, submodule in lazy.items():
        module = importlib.import_module(f"repro.net.{submodule}")
        assert getattr(repro.net, name) is getattr(module, name)
