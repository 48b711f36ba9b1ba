"""The serve+load closed loop, in-process.

Boots a live 3-manager/2-host cell (the same :class:`LiveCell` that
``repro serve --role cell`` runs) and drives it with the ``repro load``
generator: admin-protocol grants first, then closed-loop application
requests, with the RPS/latency report built from streaming summaries.
The full CLI path (subprocess + cell file) is exercised by ``make
net-smoke`` (and so by CI); this test keeps the loop itself tier-1,
together with the cell file's reader and writer and the CLIs'
rejection of malformed arguments and cell files.
"""

from __future__ import annotations

import asyncio
import json
import os
import re

import pytest

from repro.core.admin import AdminClient
from repro.core.cellspec import CellSpec
from repro.core.policy import AccessPolicy
from repro.net import cell as cell_module
from repro.net import load, serve
from repro.net.cell import LiveCell, read_cell, write_cell
from repro.net.load import _print_report, run_load
from repro.net.runtime import LiveRuntime

SPEC = CellSpec.sized(1, 1, policy=AccessPolicy(check_quorum=1))
DOCUMENT = {
    "applications": ["app"], "groups": [["m0"]], "hosts": ["h0"],
    "policy": {"check_quorum": 1},
    "endpoints": {"m0": ["127.0.0.1", 7100], "h0": ["127.0.0.1", 7200]},
}


def _write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def test_load_generator_closed_loop_against_live_cell():
    async def scenario():
        async with LiveCell(n_managers=3, n_hosts=2, time_scale=20.0) as cell:
            return await run_load(
                cell.spec,
                cell.directory,
                cell.secret,
                n_clients=2,
                duration=1.0,
                time_scale=20.0,
            )

    report = asyncio.run(scenario())
    assert report["requests"] > 0
    assert report["rps"] > 0
    # Every request was granted end-to-end: the admin-protocol grants
    # landed and verification succeeded over real sockets.
    assert set(report["outcomes"]) == {"ok"}
    assert report["outcomes"]["ok"] == report["requests"]
    latency = report["latency_ms"]
    assert latency is not None
    assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    assert report["grant_seconds"] >= 0

    # The text report renders every section without blowing up.
    _print_report(report)


def test_load_generator_closed_loop_over_binary_codec():
    # The same closed loop, with the cell built through the one-value
    # ``codec="binary"`` keyword the end-to-end benchmark passes:
    # messages travel as coalesced segments and the report carries the
    # wire counters the CLI prints.
    async def scenario():
        async with LiveCell(
            n_managers=3, n_hosts=2, time_scale=20.0, codec="binary"
        ) as cell:
            return await run_load(
                cell.spec,
                cell.directory,
                cell.secret,
                n_clients=2,
                duration=0.5,
                time_scale=20.0,
            )

    report = asyncio.run(scenario())
    assert report["requests"] > 0
    assert set(report["outcomes"]) == {"ok"}
    wire = report["wire"]
    assert "codec" not in wire
    assert wire["segments_sent"] > 0
    assert wire["segment_msgs_sent"] >= report["requests"]
    assert wire["frames_sent"] == wire["segments_sent"]
    _print_report(report)
    # Any other codec is refused before a socket is opened.
    with pytest.raises(ValueError, match="the live wire is binary"):
        LiveCell(n_managers=3, n_hosts=2, codec="json")


@pytest.mark.parametrize(
    "argv,document,flag",
    [
        (["--role", "host", "--address", "h0"],
         {"endpoints": {"m0": ["127.0.0.1"], "h0": ["127.0.0.1", 7200]}}, "--cell"),
        (["--role", "host", "--address", "h0"],
         {"endpoints": {"h0": ["127.0.0.1", 7200]}}, "--cell"),
        (["--role", "manager", "--address", "m0"],
         {"endpoints": {"m0": ["127.0.0.1", 70000], "h0": ["127.0.0.1", 7200]}}, "--cell"),
        (["--grant", "alice:bogus"], {}, "--grant"),
        (["--managers", "3", "--check-quorum", "9"], {}, "--check-quorum"),
    ],
    ids=["peer-without-port", "peer-without-endpoint", "listen-port", "grant-right", "quorum"],
)
def test_serve_rejects_malformed_arguments_naming_the_flag(argv, document, flag, tmp_path,
                                                            capsys):
    cell = _write(tmp_path / "cell.json", {**DOCUMENT, **document})
    with pytest.raises(SystemExit) as excinfo:
        serve.main(argv + ["--cell", cell, "--run-for", "0"])
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "main,argv,flag",
    [
        (load.main, ["--time-scale", "0"], "--time-scale"),
        (load.main, ["--clients", "0"], "--clients"),
        (load.main, ["--duration", "0"], "--duration"),
        (serve.main, ["--role", "cell", "--time-scale", "0", "--run-for", "0"], "--time-scale"),
    ],
    ids=["load-time-scale", "load-clients", "load-duration", "serve-time-scale"],
)
def test_nonpositive_arguments_exit_2_naming_the_flag(main, argv, flag, tmp_path, capsys):
    # Refused while parsing: the cell file is never read, no socket opened.
    with pytest.raises(SystemExit) as excinfo:
        main(["--cell", str(tmp_path / "cell.json")] + argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: '0' is not positive" in capsys.readouterr().err


def test_cell_file_round_trip(tmp_path):
    path = str(tmp_path / "cell.json")
    spec = CellSpec(("a", "b"), (("alpha", "beta"), ("gamma",)), ("edge",),
                    AccessPolicy(check_quorum=1))
    directory = {"alpha": ("127.0.0.1", 7100), "beta": ("10.0.0.2", 7101),
                 "gamma": ("127.0.0.1", 0), "edge": ("localhost", 65535)}
    write_cell(path, spec, directory)
    assert read_cell(path) == (spec, directory)
    # Without a policy key, the cell has the default policy.
    managers = ["m0", "m1", "m2"]
    plain = {"applications": ["app"], "groups": [managers], "hosts": [],
             "endpoints": {address: ["127.0.0.1", 0] for address in managers}}
    assert read_cell(_write(tmp_path / "plain.json", plain))[0].policy == AccessPolicy()


def test_a_failed_write_leaves_no_cell_file(tmp_path, monkeypatch):
    # A reader polling for the path sees the whole file or none: a dump
    # that fails partway leaves neither the path nor a temporary behind.
    def partial_dump(document, handle):
        handle.write('{"applications": ')
        raise OSError("disk full")

    monkeypatch.setattr(cell_module.json, "dump", partial_dump)
    with pytest.raises(OSError, match="disk full"):
        write_cell(str(tmp_path / "cell.json"), SPEC,
                   {"m0": ("127.0.0.1", 7100), "h0": ("127.0.0.1", 7200)})
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "document,complaint",
    [
        ([], "a cell file is an object"),
        ({"hosts": ["h0"]}, "an object of the keys"),
        ({**DOCUMENT, "keys": {}}, "an object of the keys"),
        ({**DOCUMENT, "policy": {"expiry_bound": 5}}, "only an integer 'check_quorum'"),
        ({**DOCUMENT, "policy": {"check_quorum": "1"}}, "only an integer 'check_quorum'"),
        ({**DOCUMENT, "policy": {"check_quorum": 2}}, "exceeds manager count"),
        ({**DOCUMENT, "applications": []}, "at least one application"),
        ({**DOCUMENT, "groups": "m0"}, "'groups' must be a list"),
        ({**DOCUMENT, "groups": [["m0", "m0"]]}, "distinct names"),
        ({**DOCUMENT, "hosts": ["m0"], "endpoints": {"m0": ["127.0.0.1", 7100]}}, "unique"),
        ({**DOCUMENT, "hosts": [7]}, "'hosts' must be a list"),
        ({**DOCUMENT, "endpoints": {"m0": ["127.0.0.1", 7100]}}, "without an endpoint: ['h0']"),
        ({**DOCUMENT, "endpoints": {**DOCUMENT["endpoints"], "x": ["127.0.0.1", 1]}},
         "of no node: ['x']"),
        ({**DOCUMENT, "endpoints": {**DOCUMENT["endpoints"], "h0": ["127.0.0.1", -1]}},
         "port 0-65535"),
        ({**DOCUMENT, "endpoints": {**DOCUMENT["endpoints"], "h0": ["", 7200]}}, "port 0-65535"),
        ({**DOCUMENT, "endpoints": {**DOCUMENT["endpoints"], "h0": "127.0.0.1:7200"}},
         "port 0-65535"),
    ],
    ids=["not-an-object", "missing-key", "unknown-key", "unknown-policy", "string-quorum",
         "quorum-too-big", "no-apps", "groups-not-a-list", "duplicate-in-group",
         "manager-also-host", "host-not-a-name", "missing-endpoint", "extra-endpoint",
         "negative-port", "empty-host", "endpoint-not-a-pair"],
)
def test_reader_refuses_malformed_cell_files(document, complaint, tmp_path):
    with pytest.raises(ValueError, match=re.escape(complaint)):
        read_cell(_write(tmp_path / "cell.json", document))


@pytest.mark.parametrize(
    "contents,argv,complaint",
    [
        ("{not json", [], "argument --cell:"),
        (json.dumps({"m0": ["127.0.0.1"]}), [], "argument --cell: a cell file is an object"),
        (json.dumps({**DOCUMENT, "endpoints": {"m0": ["127.0.0.1", 7100]}}), [],
         "argument --cell: nodes without an endpoint"),
        (json.dumps({**DOCUMENT, "endpoints": {**DOCUMENT["endpoints"],
                                               "h0": ["127.0.0.1", 70000]}}), [],
         "argument --cell: endpoint of 'h0'"),
        (json.dumps({**DOCUMENT, "hosts": [], "endpoints": {"m0": ["127.0.0.1", 7100]}}), [],
         "argument --cell: "),
        (json.dumps(DOCUMENT), ["--app", "other"], "argument --app: 'other' is not an application"),
        (None, [], "argument --cell:"),
    ],
    ids=["malformed", "old-port-file", "missing-endpoint", "port-70000", "no-hosts",
         "unknown-app", "no-file"],
)
def test_load_refuses_bad_input_before_any_grant(contents, argv, complaint, tmp_path,
                                                 monkeypatch, capsys):
    path = tmp_path / "cell.json"
    if contents is not None:
        path.write_text(contents)

    async def no_run(*args, **kwargs):
        raise AssertionError("run_load reached with bad input")

    monkeypatch.setattr(load, "run_load", no_run)
    with pytest.raises(SystemExit) as excinfo:
        load.main(["--cell", str(path), "--duration", "0.1"] + argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert complaint in err and "Traceback" not in err


def test_admin_grants_go_to_the_applications_manager_group(monkeypatch):
    # A two-group cell, each group owning applications of its own, each
    # node built by the node roles' own builder: every admin grant of a
    # load run lands on a manager of Managers(app), and every request is
    # served.
    spec = CellSpec(("a", "b", "c"), (("alpha",), ("beta",)), ("edge",),
                    AccessPolicy(check_quorum=1))
    app = next(a for a in spec.applications if spec.group_index_for(a) == 1)
    granted_via = []
    add = AdminClient.add

    def recorded(self, manager, application, user, *args, **kwargs):
        granted_via.append(manager)
        return add(self, manager, application, user, *args, **kwargs)

    monkeypatch.setattr(AdminClient, "add", recorded)

    async def scenario():
        parse = serve.build_parser().parse_args
        runtimes, directory = [], {}
        for role, address in [*(("manager", a) for a in spec.manager_addrs),
                              *(("host", a) for a in spec.hosts)]:
            node = serve._build_node(parse(["--role", role, "--address", address]), spec)
            runtimes.append(LiveRuntime(b"groups", time_scale=20.0))
            runtimes[-1].register(node)
            directory[node.address] = ("127.0.0.1", await runtimes[-1].start("127.0.0.1", 0))
        for runtime in runtimes:
            runtime.set_peers(directory)
        try:
            return await run_load(spec, directory, b"groups", n_clients=3, duration=0.3,
                                  application=app, time_scale=20.0)
        finally:
            await asyncio.gather(*(runtime.stop() for runtime in runtimes))

    report = asyncio.run(scenario())
    assert set(granted_via) == set(spec.manager_addrs_for(app)) and len(granted_via) == 3
    assert report["requests"] > 0
    assert report["outcomes"] == {"ok": report["requests"]}
