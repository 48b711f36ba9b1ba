#!/usr/bin/env python3
"""Assert that a ``repro load --json`` report is healthy, as both legs
of ``make net-smoke`` (a ``--role cell`` cell and a hand-wired one) do::

    python3 tools/check_load_report.py /tmp/load.json

Requests were served, every one ``ok``, with a positive median latency,
and the wire counters show segments coalescing.
"""

import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    report = json.load(handle)
assert report["requests"] > 0, report
assert report["outcomes"].get("ok") == report["requests"], report
assert report["latency_ms"]["p50"] > 0, report
wire = report["wire"]
assert wire["segments_sent"] > 0, wire
assert wire["msgs_per_segment"] > 1.0, wire
