"""Printing, validating and comparing result documents."""

from __future__ import annotations

import json
import os
import re
from typing import Any, Callable, Dict, List

from . import spec
from .runner import OUT_DIR

__all__ = ["print_document", "driver_result", "suite_summary", "validate_outputs", "repeat"]

_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def print_document(document: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the slices behind them."""
    kind = "traced (per-layer)" if document["trace"] else "untraced (end-to-end)"
    env = document["env"]
    print(f"== {document['workload']}  seed={document['seed']}  seconds={document['seconds']}  "
          f"{kind}  nproc={env['nproc']}  python={env['python']}")
    print(f"   {env['note']}; injected delay {env['injected_delay_ms']} ms")
    for name, entry in document["metrics"].items():
        print(f"   {name:<48} {entry['value']:>14.4f} {entry['unit']}")
    print(f"   {'ops_attempted':<48} {document['ops_attempted']:>14d} count")
    print(f"   {'ops_failed':<48} {document['ops_failed']:>14d} count")
    window = document.get("window") or document["reference_window"]
    keys = [k for k in window["slices"][0] if k != "wall_s"]
    for key in keys:
        values = " ".join(f"{row[key]:.4g}" for row in window["slices"])
        print(f"   slices {key:<22} {values}")
    for failure in document["failures"]:
        print(f"   FAILED: {failure}")


def driver_result(document: Dict[str, Any]) -> Dict[str, Any]:
    """The result object the driver reads from the last line of output.

    Untraced: the end-to-end metrics defined on every workload.  Traced:
    every per-layer metric.
    """
    wanted = spec.PER_LAYER if document["trace"] else spec.DRIVER_E2E
    return {
        "correct": document["correct"],
        "attempted": document["ops_attempted"],
        "failed": document["ops_failed"],
        "metrics": {metric.name: document["metrics"][metric.name] for metric in wanted},
    }


def _load(name: str) -> Dict[str, Any]:
    with open(os.path.join(OUT_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


def suite_summary(problems: List[str]) -> Dict[str, Any]:
    """One object for the whole suite; no performance claim is made."""
    workloads = {}
    for workload in spec.WORKLOADS:
        entry = {}
        for label, name in (("end_to_end", f"{workload}.json"), ("per_layer", f"{workload}.traced.json")):
            path = os.path.join(OUT_DIR, name)
            if os.path.exists(path):
                document = _load(name)
                entry[label] = {k: v["value"] for k, v in document["metrics"].items()}
                entry.setdefault("ops_attempted", 0)
                entry["ops_attempted"] += document["ops_attempted"]
                entry["ops_failed"] = entry.get("ops_failed", 0) + document["ops_failed"]
        workloads[workload] = entry
    return {"workloads": workloads, "problems": problems, "claim": None}


def validate_outputs(benchmark_json: str) -> List[str]:
    """What ``--smoke`` checks about the files a suite run leaves behind."""
    problems: List[str] = []
    with open(benchmark_json, encoding="utf-8") as handle:
        contract = json.load(handle)
    declared = {(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]}
    if declared != {(m.name, m.unit, m.better) for m in spec.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from bench_e2e/spec.py")
    gated = {(m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]}
    if gated != {(m.name, m.unit, m.better, m.bound) for m in spec.DRIVER_E2E}:
        problems.append("BENCHMARK.json end_to_end differs from bench_e2e/spec.py")
    if [w["name"] for w in contract["workloads"]] != list(spec.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench_e2e/spec.py")
    for workload in spec.WORKLOADS:
        for name, wanted in ((f"{workload}.json", spec.e2e_for(workload)),
                             (f"{workload}.traced.json", spec.PER_LAYER)):
            document = _load(name)
            for metric in wanted:
                entry = document["metrics"].get(metric.name)
                if not _NAME.match(metric.name):
                    problems.append(f"{name}: bad metric name {metric.name!r}")
                if entry is None or entry.get("unit") != metric.unit:
                    problems.append(f"{name}: {metric.name} missing or without its unit")
                elif not isinstance(entry["value"], (int, float)):
                    problems.append(f"{name}: {metric.name} is not a number")
            for key in ("ops_attempted", "ops_failed"):
                if not isinstance(document[key], int):
                    problems.append(f"{name}: {key} is not a whole number")
            if document["ops_attempted"] <= 0:
                problems.append(f"{name}: no operation attempted")
            if document["claim"] is not None:
                problems.append(f"{name}: makes a claim")
        if not os.path.exists(os.path.join(OUT_DIR, f"{workload}.trace.json")):
            problems.append(f"{workload}: no span file written")
    return problems


def repeat(run_workload: Callable[[str], int]) -> int:
    """Two sets of untraced runs of the same code must agree within bounds."""
    sets: List[Dict[str, Dict[str, Any]]] = []
    for _ in range(2):
        documents = {}
        for workload in spec.WORKLOADS:
            if run_workload(workload) != 0:
                print(f"repeat: {workload} exited non-zero")
                return 1
            documents[workload] = _load(f"{workload}.json")
        sets.append(documents)
    worst = 0
    print(f"{'workload':<11} {'metric':<20} {'first':>12} {'second':>12} {'ratio':>8} {'bound':>6}")
    for workload in spec.WORKLOADS:
        first, second = sets[0][workload], sets[1][workload]
        for metric in spec.e2e_for(workload):
            a = first["metrics"][metric.name]["value"]
            b = second["metrics"][metric.name]["value"]
            ratio = b / a if a else float("inf")
            moved = max(a, b) / min(a, b) - 1.0 if min(a, b) > 0 else float("inf")
            verdict = "" if moved <= metric.bound else "  OUT OF BOUND"
            worst += bool(verdict)
            print(f"{workload:<11} {metric.name:<20} {a:>12.4f} {b:>12.4f} {ratio:>8.4f} "
                  f"{metric.bound:>6.2f}{verdict}")
    # A simulated run is fixed work: its counts must repeat exactly.
    a, b = (s["sim_cell"]["window"]["counters"] for s in sets)
    if a != b:
        worst += 1
        print(f"sim_cell counters differ between the two runs: {a} vs {b}")
    print(json.dumps({"out_of_bound": worst, "claim": None}))
    return 1 if worst else 0
