"""In-process smoke of the ``repro serve`` CLI (all three roles).

The subprocess + cell-file handshake is exercised by ``make net-smoke``
(and so by CI); these stay tier-1 by running ``main()`` directly with
short ``--run-for`` windows.
"""

from __future__ import annotations

import pytest

from repro.core.cellspec import CellSpec
from repro.core.policy import AccessPolicy
from repro.core.rights import Right
from repro.net import serve
from repro.net.cell import read_cell, write_cell
from repro.net.serve import build_parser, main


def _cell_file(path, directory, n_managers=1, n_hosts=1, check_quorum=1):
    spec = CellSpec.sized(n_managers, n_hosts, policy=AccessPolicy(check_quorum=check_quorum))
    write_cell(str(path), spec, directory)
    return str(path)


class TestParsing:
    def test_peer_directory(self, tmp_path):
        # A node's peers are the cell file's endpoints.
        directory = {"m0": ("127.0.0.1", 7100), "m1": ("127.0.0.1", 7101),
                     "h0": ("127.0.0.1", 7200)}
        path = _cell_file(tmp_path / "cell.json", directory, n_managers=2)
        assert read_cell(path)[1] == directory

    def test_grants_default_to_use(self):
        args = build_parser().parse_args(["--grant", "alice", "--grant", "bob:manage"])
        assert args.grant == [
            ("alice", Right.USE),
            ("bob", Right.MANAGE),
        ]

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.role == "cell"
        assert args.managers == 3 and args.hosts == 2


class TestAllocatorPin:
    def test_no_op_without_glibc(self, monkeypatch):
        def no_libc(_name):
            raise OSError("no C library to load")

        monkeypatch.setattr(serve.ctypes, "CDLL", no_libc)
        assert serve.pin_allocator() is False
        # A C library without mallopt (musl, macOS): the same.
        monkeypatch.setattr(serve.ctypes, "CDLL", lambda _name: object())
        assert serve.pin_allocator() is False

    def test_pins_three_thresholds_where_mallopt_exists(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(serve.ctypes, "CDLL", lambda _name: Libc)
        assert serve.pin_allocator() is True
        assert sorted(param for param, _ in calls) == [-3, -2, -1]


class TestRoles:
    def test_cell_role_writes_cell_file_and_exits(self, tmp_path, capsys):
        cell_file = tmp_path / "cell.json"
        status = main(
            [
                "--role", "cell", "--managers", "2", "--hosts", "1",
                "--check-quorum", "2",
                "--secret", "cli-test", "--cell", str(cell_file),
                "--grant", "alice", "--grant", "bob:manage",
                "--time-scale", "20", "--run-for", "0.3",
            ]
        )
        assert status == 0
        spec, directory = read_cell(str(cell_file))
        assert spec == CellSpec.sized(2, 1, policy=AccessPolicy(check_quorum=2))
        assert set(directory) == {"m0", "m1", "h0"}
        for _host, port in directory.values():
            assert port > 0
        out = capsys.readouterr().out
        assert "cell up: 2 managers, 1 hosts" in out
        assert "cell stopped" in out

    def test_manager_and_host_roles_boot_standalone(self, tmp_path, capsys):
        # Port 0: each node binds an ephemeral port of its own.
        cell = _cell_file(tmp_path / "cell.json",
                          {"m0": ("127.0.0.1", 0), "h0": ("127.0.0.1", 0)})
        for argv in (
            ["--role", "manager", "--address", "m0"],
            ["--role", "host", "--address", "h0"],
        ):
            status = main(argv + ["--cell", cell, "--secret", "cli-test", "--run-for", "0.2"])
            assert status == 0
        out = capsys.readouterr().out
        assert "manager m0 listening on" in out
        assert "host h0 listening on" in out

    def test_node_roles_require_address_and_manager_set(self, tmp_path):
        # The manager set is the cell file's: a node role needs --cell too.
        cell = _cell_file(tmp_path / "cell.json",
                          {"m0": ("127.0.0.1", 0), "h0": ("127.0.0.1", 0)})
        with pytest.raises(SystemExit):
            main(["--role", "manager", "--cell", cell, "--secret", "x", "--run-for", "0.1"])
        with pytest.raises(SystemExit):
            main(
                ["--role", "host", "--address", "h0", "--secret", "x",
                 "--run-for", "0.1"]
            )
