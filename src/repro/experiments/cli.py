"""Command-line entry point: ``repro-experiments [ids...]``.

Runs the requested experiments (default: all) and prints each result
table.  ``--list`` shows the available ids.  This is how the numbers in
EXPERIMENTS.md were produced.

Two protocol-conformance extras (see ``docs/PROTOCOL.md``):

* ``repro-experiments fuzz --cells N --jobs J --seed S`` — the
  fault-schedule fuzzer; ``--schedule file.json`` replays a saved
  (typically shrunk) schedule instead.
* ``--check-invariants`` — attach the online invariant oracles to every
  system the selected experiments construct; any protocol violation
  aborts the run with a structured error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
import time
from typing import Iterator, List, Optional

from ..argtypes import positive
from . import EXPERIMENTS, SEEDED, SIMULATED, run_experiment

__all__ = ["main"]


@contextlib.contextmanager
def _profiled(enabled: bool, path: str) -> Iterator[None]:
    """Wrap the block in ``cProfile`` and dump stats to ``path``.

    A no-op when ``enabled`` is false, so call sites stay branch-free.
    The dump is written even when the block raises, so a crashed run
    still leaves its profile behind to be read.
    """
    if not enabled:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        profiler.dump_stats(path)
        print(f"profile written to {path}")


def _fuzz_main(argv: List[str]) -> int:
    """The ``fuzz`` subcommand: randomized fault schedules vs oracles."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments fuzz",
        description=(
            "Run seeded random fault/partition/clock-drift schedules "
            "against the protocol invariant oracles; failures are shrunk "
            "to a minimal replayable schedule JSON."
        ),
    )
    parser.add_argument(
        "--cells", type=positive(int), default=25, metavar="N",
        help="number of fuzz cells to derive and run (default: 25)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed; cell i is a pure function of (S, i)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="J",
        help="worker processes (0 = all CPUs; results identical for any J)",
    )
    parser.add_argument(
        "--schedule", metavar="FILE", default=None,
        help="replay one saved schedule JSON instead of deriving cells",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimising their schedules",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=".",
        help="directory for minimal failing schedules (default: .)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and write repro-fuzz.prof next to --out",
    )
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all CPUs), got {args.jobs}")

    from ..verify import Schedule, run_cell, run_fuzz

    prof_path = os.path.join(args.out, "repro-fuzz.prof")
    if args.schedule is not None:
        schedule = Schedule.load(args.schedule)
        print(f"replaying {args.schedule}: {schedule.describe()}")
        with _profiled(args.profile, prof_path):
            result = run_cell(schedule)
        if result.ok:
            print("replay passed: no invariant violations")
            return 0
        for violation in result.violations:
            print(
                f"[{violation['invariant']}] t={violation['time']:.3f}: "
                f"{violation['message']}"
            )
        return 1

    started = time.perf_counter()
    with _profiled(args.profile, prof_path):
        report = run_fuzz(
            args.seed, args.cells, jobs=args.jobs, shrink=not args.no_shrink
        )
    elapsed = time.perf_counter() - started
    print(report.summary())
    for failure in report.failures:
        invariant = failure.violations[0]["invariant"]
        path = os.path.join(
            args.out, f"fuzz-cell{failure.cell}-{invariant}.json"
        )
        failure.minimal.save(path)
        print(f"  minimal schedule written to {path}")
    print(f"[fuzz completed in {elapsed:.2f}s]")
    return 0 if report.ok else 1


#: Subcommand -> module whose ``main(argv)`` runs it, imported on use.
_SUBCOMMANDS = {
    "bench": ".bench",
    "mega": "..workloads.mega",
    "serve": "..net.serve",
    "load": "..net.load",
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        return _fuzz_main(argv[1:])
    if argv and argv[0] in _SUBCOMMANDS:
        module = importlib.import_module(_SUBCOMMANDS[argv[0]], __package__)
        return module.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Access Control in "
            "Wide-Area Networks' (ICDCS 1997)."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the random seed of stochastic experiments "
        "(analytic experiments ignore it)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan simulation cells out over N worker processes "
        "(0 = all CPUs; results are identical for every N)",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="attach the protocol invariant oracles to every system the "
        "experiments build; a violation aborts with a structured error",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the selected experiments under cProfile and write "
        "repro-experiments.prof next to --out",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=".",
        help="directory for artifacts such as the --profile dump "
        "(default: .)",
    )
    args = parser.parse_args(argv)

    if args.check_invariants:
        from ..verify import set_checking

        set_checking(True)
        # Worker processes inherit the environment, not this module's
        # flag, so parallel cells stay checked too.
        os.environ["REPRO_CHECK_INVARIANTS"] = "1"

    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all CPUs), got {args.jobs}")

    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    prof_path = os.path.join(args.out, "repro-experiments.prof")
    with _profiled(args.profile, prof_path):
        for experiment_id in ids:
            kwargs = {"jobs": args.jobs} if experiment_id in SIMULATED else {}
            if args.seed is not None and experiment_id in SEEDED:
                kwargs["seed"] = args.seed
            started = time.perf_counter()
            result = run_experiment(experiment_id, **kwargs)
            elapsed = time.perf_counter() - started
            print(result.render())
            print(f"\n[{experiment_id} completed in {elapsed:.2f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
