"""Command line of the end-to-end benchmark.

``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
    one workload in this process (the driver's entry point); the last
    line of standard output is the result object.
``python3 -m bench_e2e [--seconds S] [--seed N]``
    all four workloads, untraced then traced, each in a fresh process.
``python3 -m bench_e2e --smoke``
    the same at about one second per window, then validates the output.
``python3 -m bench_e2e repeat``
    the untraced suite twice; fails if any end-to-end metric moves by
    more than its bound between the two sets.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_PACKAGE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_PACKAGE)
_SRC = os.path.join(_ROOT, "src")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench_e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=("repeat",), help="run the suite twice")
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (sim horizon scales with it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations and windows; validates the output")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def _pin_allocator() -> None:
    """Keep glibc malloc in one regime for the whole run.

    asyncio receives into a fresh 256 KiB buffer per read.  Left alone,
    glibc serves that from the heap top and, depending on what else
    happens to sit there, trims and regrows the heap on every read: 16
    minor page faults per request instead of 0.4, and ``live_churn`` 15%
    slower, from a moment that differs run to run (README, "Allocator").
    Fixed thresholds make every run take the fault-free path.
    """
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to pin
    mallopt(m_mmap_threshold, 16 << 20)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_top_pad, 16 << 20)


def _child(args: list) -> int:
    """Run one workload in a fresh process, passing its output through."""
    done = subprocess.run([sys.executable, "-m", "bench_e2e", *args], cwd=_ROOT)
    return done.returncode


def main() -> int:
    args = _parser().parse_args()
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"bench_e2e: the program under test is missing ({_SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, _SRC)
    _pin_allocator()
    from bench_e2e import live, report, runner, spec

    seed = spec.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec.DEFAULT_SECONDS)
    )
    if args.workload is not None:
        if args.workload not in spec.WORKLOADS:
            print(f"bench_e2e: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        try:
            document = runner.run(args.workload, seed, seconds, bool(args.trace), _T0,
                                  smoke=args.smoke, setup_only=args.setup_only)
        except live.BenchFailure as failure:
            print(f"bench_e2e: {args.workload} FAILED: {failure}", file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps(document))
            return 0
        report.print_document(document)
        print(json.dumps(report.driver_result(document)))
        return 0 if document["correct"] else 1

    common = ["--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if args.smoke else [])
    if args.mode == "repeat":
        return report.repeat(lambda w: _child(["--workload", w, "--trace", "0", *common]))
    failed = []
    for workload in spec.WORKLOADS:
        for trace in ("0", "1"):
            if _child(["--workload", workload, "--trace", trace, *common]) != 0:
                failed.append(f"{workload} --trace {trace}")
    problems = [f"{name} exited non-zero" for name in failed]
    if args.smoke and not failed:
        problems += report.validate_outputs(os.path.join(_ROOT, "BENCHMARK.json"))
    print(json.dumps(report.suite_summary(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
