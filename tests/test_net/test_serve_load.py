"""The serve+load closed loop, in-process.

Boots a live 3-manager/2-host cell (the same :class:`LiveCell` that
``repro serve --role cell`` runs) and drives it with the ``repro load``
generator: admin-protocol grants first, then closed-loop application
requests, with the RPS/latency report built from streaming summaries.
The full CLI path (subprocess + port file) is exercised by the CI
net-smoke job; this test keeps the loop itself tier-1, together with
``repro serve``'s rejection of malformed arguments.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.net import load, serve
from repro.net.cell import LiveCell
from repro.net.load import _load_directory, _print_report, run_load


def test_load_generator_closed_loop_against_live_cell():
    async def scenario():
        async with LiveCell(n_managers=3, n_hosts=2, time_scale=20.0) as cell:
            return await run_load(
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
    "argv,flag",
    [
        (["--role", "host", "--address", "h0", "--manager-set", "m0", "--peers", "m0=host"],
         "--peers"),
        (["--role", "host", "--address", "h0", "--manager-set", "m0", "--peers", "m0"],
         "--peers"),
        (["--role", "manager", "--address", "m0", "--manager-set", "m0", "--listen", "host:abc"],
         "--listen"),
        (["--grant", "alice:bogus"], "--grant"),
        (["--managers", "3", "--check-quorum", "9"], "--check-quorum"),
    ],
    ids=["peer-without-port", "peer-without-endpoint", "listen-port", "grant-right", "quorum"],
)
def test_serve_rejects_malformed_arguments_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        serve.main(argv + ["--run-for", "0"])
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
    # Refused while parsing: the port file is never read, no socket opened.
    with pytest.raises(SystemExit) as excinfo:
        main(["--port-file", str(tmp_path / "cell.json")] + argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: '0' is not positive" in capsys.readouterr().err


def test_port_file_round_trip(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"m0": ["127.0.0.1", 7100], "h0": ["127.0.0.1", 7200]}))
    assert _load_directory(str(path)) == {
        "m0": ("127.0.0.1", 7100),
        "h0": ("127.0.0.1", 7200),
    }
