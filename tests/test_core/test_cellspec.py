"""The one cell recipe: :class:`CellSpec` names, validates and builds
every manager and host of a cell, for the sim and the live backends."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.core.byzantine import GRANT_ALL, LyingManager
from repro.core.cellspec import CellSpec
from repro.core.policy import AccessPolicy
from repro.core.system import AccessControlSystem

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
C1 = AccessPolicy(check_quorum=1)


class TestSized:
    def test_flat_cell_names(self):
        spec = CellSpec.sized(3, 2, ("a", "b"))
        assert spec.groups == (("m0", "m1", "m2"),)
        assert spec.hosts == ("h0", "h1")
        assert spec.manager_addrs == ("m0", "m1", "m2")
        assert spec.shard_router is None
        assert spec.manager_addrs_for("b") == ("m0", "m1", "m2")

    def test_sharded_cell_names_and_routes(self):
        spec = CellSpec.sized(2, 1, [f"app{i}" for i in range(8)], C1, shards=3)
        assert spec.groups == (("s0m0", "s0m1"), ("s1m0", "s1m1"), ("s2m0", "s2m1"))
        for app in spec.applications:
            index = spec.shard_router.shard_of(app)
            assert spec.group_index_for(app) == index
            assert spec.manager_addrs_for(app) == spec.groups[index]

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((0, 1), {}),
            ((3, -1), {}),
            ((3, 1, ()), {}),
            ((3, 1), {"shards": 0}),
            ((2, 1), {"policy": AccessPolicy(check_quorum=3)}),
        ],
        ids=["no-managers", "negative-hosts", "no-apps", "no-shards", "quorum"],
    )
    def test_invalid_shapes_refused(self, args, kwargs):
        with pytest.raises(ValueError):
            CellSpec.sized(*args, **kwargs)

    def test_names_are_the_rule_sized_uses(self):
        assert CellSpec.names(2, 1) == ((("m0", "m1"),), ("h0",))
        assert CellSpec.names(1, shards=2) == ((("s0m0",), ("s1m0",)), ())
        spec = CellSpec.sized(2, 3, shards=2, policy=C1)
        assert (spec.groups, spec.hosts) == CellSpec.names(2, 3, shards=2)

    def test_node_names_are_unique(self):
        with pytest.raises(ValueError, match="unique"):
            CellSpec(("a",), (("n0",), ("n0",)), (), C1)
        with pytest.raises(ValueError, match="unique"):
            CellSpec(("a",), (("n0",),), ("n0",), C1)

    def test_replace_keeps_the_router(self):
        from dataclasses import replace

        spec = CellSpec.sized(1, 0, ("a",), C1, shards=2)
        assert replace(spec, applications=("a", "b")).shard_router is spec.shard_router


class TestBuild:
    def test_manager_manages_exactly_its_groups_applications(self):
        spec = CellSpec.sized(2, 0, [f"app{i}" for i in range(8)], C1, shards=2)
        for address in spec.manager_addrs:
            manager = spec.manager(address)
            group = next(g for g in spec.groups if address in g)
            owned = {a for a in spec.applications if spec.manager_addrs_for(a) == group}
            assert set(manager.acls) == owned

    def test_manager_class_and_options_pass_through(self):
        spec = CellSpec.sized(3, 0)
        liar = spec.manager("m2", LyingManager, mode=GRANT_ALL, collude_as="cartel")
        assert isinstance(liar, LyingManager) and liar.collude_as == "cartel"
        assert liar.default_policy is spec.policy

    def test_unknown_manager_refused(self):
        with pytest.raises(ValueError, match="not a manager"):
            CellSpec.sized(3, 1).manager("h0")

    def test_host_resolution_static_flat_ring_sharded(self):
        flat = CellSpec.sized(3, 1, ("a", "b")).host("h0")
        assert flat.manager_addrs_for("b") == ("m0", "m1", "m2")
        assert flat.shard_router is None
        sharded = CellSpec.sized(2, 1, ("a", "b"), C1, shards=2)
        host = sharded.host("h0")
        assert host.shard_router is sharded.shard_router
        assert host.manager_addrs_for("b") == sharded.manager_addrs_for("b")

    def test_sim_system_builds_from_its_spec(self):
        system = AccessControlSystem(n_managers=3, n_hosts=2, shards=2, seed=1)
        assert system.spec == CellSpec.sized(3, 2, shards=2, policy=system.policy)
        assert [m.address for m in system.managers] == list(system.spec.manager_addrs)
        assert [h.address for h in system.hosts] == list(system.spec.hosts)


def _call_sites(name: str):
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                sites.append(path.relative_to(SRC).as_posix())
    return sites


def test_nodes_are_built_in_one_place():
    # Every backend (the sim system, LiveCell, repro serve's node roles)
    # builds its hosts in CellSpec.host, and its managers in
    # CellSpec.manager as ``cls(...)``, AccessControlManager by default.
    assert _call_sites("ApplicationHost") == ["core/cellspec.py"]
    assert _call_sites("AccessControlManager") == _call_sites("LyingManager") == []


#: A node address built by hand (``f"m{i}"``, ``f"h{i}"``, ``f"s{g}m{i}"``)
#: or a node's role guessed from its first letter.
NAMING_RULE = re.compile(r"""f["'][mhs]\{|startswith\(["'][mh]["']\)""")


def test_nodes_are_named_in_one_place():
    # CellSpec.names is the one copy of the naming rule; everything else
    # takes node names from a spec, so a cell may name its nodes freely.
    copies = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py")) if path.relative_to(SRC).as_posix() != "core/cellspec.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NAMING_RULE.search(line)
    ]
    assert copies == []
