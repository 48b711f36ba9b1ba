"""``repro serve``'s single-node roles build the cell ``--role cell`` builds.

A manager booted alone from a cell file starts from the ACL its address
has inside a whole cell booted with the same flags (the admin's
``MANAGE`` and every ``--grant``), so a hand-wired cell of separately
booted processes serves ``repro load`` exactly as ``--role cell`` does,
whatever its nodes are named.  The last test is the known defect of
ROADMAP item 10: manager keys are still derived from their names, so
anyone can build a manager's principal.
"""

from __future__ import annotations

import asyncio
import os
import select
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.auth.identity import Principal
from repro.core.cellspec import CellSpec
from repro.core.messages import QueryResponse, Verdict
from repro.core.policy import AccessPolicy
from repro.core.rights import Right, Version
from repro.net import serve
from repro.net.cell import ADMIN_USER, LiveCell, LiveRecipe, read_cell, write_cell
from repro.net.load import run_load

SRC = Path(__file__).resolve().parents[2] / "src"
SECRET = "node-roles"
USERS = (ADMIN_USER, "alice", "bob", "carol")


def _acl(manager):
    acl = manager.acl("app")
    return {
        (user, right): acl.entry(user, right)
        for user in USERS
        for right in (Right.USE, Right.MANAGE)
        if acl.entry(user, right) is not None
    }


def test_manager_role_starts_from_the_acl_its_address_has_in_a_cell(tmp_path, monkeypatch,
                                                                   capsys):
    cell_file = str(tmp_path / "cell.json")
    grants = ["--grant", "alice", "--grant", "bob:manage"]
    cells = []

    def recorded(*args, **kwargs):
        cells.append(LiveCell(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(serve, "LiveCell", recorded)
    assert serve.main(["--role", "cell", "--managers", "3", "--check-quorum", "2",
                       "--cell", cell_file, "--run-for", "0"] + grants) == 0
    node_args = serve.build_parser().parse_args(
        ["--role", "manager", "--address", "m1", "--cell", cell_file] + grants
    )
    alone = serve._build_node(node_args, read_cell(cell_file)[0])

    expected = _acl(cells[0].managers[1])
    assert set(expected) == {
        (ADMIN_USER, Right.MANAGE), ("alice", Right.USE), ("bob", Right.MANAGE),
    }
    assert _acl(alone) == expected


def test_manager_role_refuses_an_address_outside_the_manager_set(tmp_path, capsys):
    cell_file = str(tmp_path / "cell.json")
    write_cell(cell_file, CellSpec.sized(1, 1, policy=AccessPolicy(check_quorum=1)),
               {"m0": ("127.0.0.1", 0), "h0": ("127.0.0.1", 0)})
    for role, address in (("manager", "m9"), ("manager", "h0"), ("host", "m0")):
        with pytest.raises(SystemExit) as excinfo:
            serve.main(["--role", role, "--address", address, "--cell", cell_file,
                        "--run-for", "0"])
        assert excinfo.value.code == 2
        assert f"argument --address: {address!r} is not a {role} of" in capsys.readouterr().err


def test_cell_role_still_boots_without_hosts(capsys):
    assert serve.main(["--role", "cell", "--hosts", "0", "--run-for", "0"]) == 0
    assert "cell up: 3 managers, 0 hosts" in capsys.readouterr().out


def _free_ports(count):
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _serve_hand_wired(cell_file, spec):
    """Boot every node of ``spec`` as its own ``repro serve`` process on
    free fixed ports, written to ``cell_file`` by hand; returns the
    report of a short ``repro load`` run against them."""
    nodes = [("manager", address) for address in spec.manager_addrs]
    nodes += [("host", address) for address in spec.hosts]
    ports = _free_ports(len(nodes))
    write_cell(str(cell_file), spec,
               {address: ("127.0.0.1", port) for (_, address), port in zip(nodes, ports)})
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    processes = []
    try:
        for role, address in nodes:
            processes.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--role", role, "--address", address,
                 "--cell", str(cell_file), "--secret", SECRET, "--run-for", "60"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            ))
        for node in processes:  # wait until each one is listening
            assert select.select([node.stdout], [], [], 30)[0], "no readiness line in 30 s"
            line = node.stdout.readline()
            assert "listening on" in line, line + node.stdout.read()
        return asyncio.run(run_load(*read_cell(str(cell_file)), SECRET.encode(),
                                    n_clients=2, duration=0.5))
    finally:
        for node in processes:
            node.terminate()
        for node in processes:
            node.communicate(timeout=10)


def test_hand_wired_manager_and_host_serve_repro_load(tmp_path):
    """``--role manager`` plus ``--role host``, two processes: every
    request of ``repro load`` is served, the admin's grants included."""
    spec = CellSpec.sized(1, 1, policy=AccessPolicy(check_quorum=1))
    report = _serve_hand_wired(tmp_path / "cell.json", spec)
    assert report["requests"] > 0
    assert report["outcomes"] == {"ok": report["requests"]}


def test_node_names_are_the_cell_files_not_a_naming_rule(tmp_path):
    """Nothing guesses a node's role from its name: managers ``alpha``,
    ``beta``, ``gamma`` and host ``edge`` serve ``repro load`` too."""
    spec = CellSpec(("app",), (("alpha", "beta", "gamma"),), ("edge",),
                    AccessPolicy(check_quorum=2))
    report = _serve_hand_wired(tmp_path / "cell.json", spec)
    assert report["requests"] > 0
    assert report["outcomes"] == {"ok": report["requests"]}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP 10")
def test_a_principal_built_outside_the_cell_cannot_forge_an_answer():
    # A host built by the live recipe, with the cell's authenticator,
    # waits on a query; a forger who built Principal("m0") itself answers
    # it, granting a user no one ever granted.
    spec = CellSpec.sized(3, 1, policy=AccessPolicy(check_quorum=2))
    host = LiveRecipe(spec).host("h0")
    reached_combiner = []
    query_id = host._pending_queries.allocate(reached_combiner.append)
    forged = Principal("m0").sign(QueryResponse(
        query_id=query_id, application="app", user="mallory", right=Right.USE,
        verdict=Verdict.GRANT, te=100.0, version=Version(1, "m0"), manager="m0",
    ))
    host.handle_message("m0", forged)
    assert reached_combiner == []
    assert host.rejected_manager_signatures == 1
