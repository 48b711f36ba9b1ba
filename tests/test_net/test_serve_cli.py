"""In-process smoke of the ``repro serve`` CLI (all three roles).

The subprocess + port-file handshake is exercised by the CI net-smoke
job; these stay tier-1 by running ``main()`` directly with short
``--run-for`` windows.
"""

from __future__ import annotations

import json

import pytest

from repro.core.rights import Right
from repro.net import serve
from repro.net.serve import _parse_peers, build_parser, main


class TestParsing:
    def test_peer_directory(self):
        assert _parse_peers("m0=127.0.0.1:7100, m1=127.0.0.1:7101,") == {
            "m0": ("127.0.0.1", 7100),
            "m1": ("127.0.0.1", 7101),
        }
        assert _parse_peers("") == {}

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
    def test_cell_role_writes_port_file_and_exits(self, tmp_path, capsys):
        port_file = tmp_path / "cell.json"
        status = main(
            [
                "--role", "cell", "--managers", "2", "--hosts", "1",
                "--check-quorum", "2",
                "--secret", "cli-test", "--port-file", str(port_file),
                "--grant", "alice", "--grant", "bob:manage",
                "--time-scale", "20", "--run-for", "0.3",
            ]
        )
        assert status == 0
        directory = json.loads(port_file.read_text())
        assert set(directory) == {"m0", "m1", "h0"}
        for _host, port in directory.values():
            assert port > 0
        out = capsys.readouterr().out
        assert "cell up: 2 managers, 1 hosts" in out
        assert "cell stopped" in out

    def test_manager_and_host_roles_boot_standalone(self, capsys):
        for argv in (
            ["--role", "manager", "--address", "m0", "--manager-set", "m0"],
            ["--role", "host", "--address", "h0", "--manager-set", "m0"],
        ):
            status = main(
                argv
                + ["--check-quorum", "1", "--secret", "cli-test",
                   "--run-for", "0.2"]
            )
            assert status == 0
        out = capsys.readouterr().out
        assert "manager m0 listening on" in out
        assert "host h0 listening on" in out

    def test_node_roles_require_address_and_manager_set(self):
        with pytest.raises(SystemExit):
            main(["--role", "manager", "--secret", "x", "--run-for", "0.1"])
        with pytest.raises(SystemExit):
            main(
                ["--role", "host", "--address", "h0", "--secret", "x",
                 "--run-for", "0.1"]
            )
