#!/usr/bin/env python3
"""Function lines no entry point reaches, per module of ``src/repro``.

Runs each entry point in a fresh interpreter with a call hook installed
(``sys.settrace`` returning ``None``: one callback per new frame, no
line tracing), also in every Python subprocess it starts, and collects
the code objects that ran.  Every ``def`` under ``--src`` that never ran
is unreached; its lines (decorators to last line) are counted once, in
the outermost unreached function::

    python3 tools/reach.py                      # the default entry points
    python3 tools/reach.py --entry "examples/quickstart.py" --top 10 --names

An entry is the argument list of one ``python`` command, run from the
repository root with ``src`` on ``PYTHONPATH``.  The defaults are
``-m repro`` (all experiments), every ``examples/*.py``, ``-m bench_e2e
--smoke`` and ``-m repro fuzz --cells 20 --seed 7``.  Worker processes
that leave through ``os._exit`` report nothing, so run entries with
their default job count.  The last stdout line is the report as one
JSON object; exit status 1 when an entry fails, 2 on a bad argument.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

_ROOT = Path(__file__).resolve().parent.parent

#: Installed as ``sitecustomize`` in every traced interpreter.
_HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def _call(frame, event, arg):
    _seen.add(frame.f_code)


def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid())
    with open(path, "w") as out:
        for code in _seen:
            out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
'''

Function = Tuple[int, int, Tuple[int, ...], str]  # first, last, start lines, name


def default_entries() -> List[str]:
    examples = sorted(str(p.relative_to(_ROOT)) for p in (_ROOT / "examples").glob("*.py"))
    return ["-m repro", *examples, "-m bench_e2e --smoke", "-m repro fuzz --cells 20 --seed 7"]


def _functions(tree: ast.AST) -> Iterator[Tuple[Function, Optional[Function]]]:
    """Every ``def`` with its nearest enclosing ``def`` (classes are
    transparent)."""
    stack: List[Tuple[ast.AST, Optional[Function]]] = [(tree, None)]
    while stack:
        node, outer = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                starts = tuple(d.lineno for d in child.decorator_list) + (child.lineno,)
                function = (min(starts), child.end_lineno, starts, child.name)
                yield function, outer
                stack.append((child, function))
            else:
                stack.append((child, outer))


def unreached(src: Path, seen: Set[Tuple[str, int]]
              ) -> Dict[str, Tuple[int, List[Function], int]]:
    """``module -> (unreached lines, unreached functions, function lines)``.

    A function counts as reached when a code object started on one of
    its decorator lines or its ``def`` line."""
    report = {}
    for path in sorted(src.rglob("*.py")):
        filename = str(path.resolve())
        functions = list(_functions(ast.parse(path.read_text(), filename)))

        def ran(function: Function) -> bool:
            return any((filename, line) in seen for line in function[2])

        missed = [f for f, outer in functions
                  if not ran(f) and (outer is None or ran(outer))]
        total = sum(f[1] - f[0] + 1 for f, outer in functions if outer is None)
        lines = sum(f[1] - f[0] + 1 for f in missed)
        report[str(path.relative_to(src.parent))] = (lines, missed, total)
    return report


def run_entries(entries: List[str], out: Path) -> List[Tuple[str, int]]:
    """Run each entry traced; returns ``(entry, exit status)`` pairs."""
    hook_dir = out / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_HOOK)
    env = dict(os.environ, REACH_OUT=str(out))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    statuses = []
    for entry in entries:
        print(f"reach: running python {entry}", file=sys.stderr, flush=True)
        done = subprocess.run([sys.executable, *shlex.split(entry)], cwd=_ROOT, env=env,
                              stdout=subprocess.DEVNULL)
        statuses.append((entry, done.returncode))
    return statuses


def _read_seen(out: Path) -> Set[Tuple[str, int]]:
    seen = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((os.path.realpath(filename), int(first)))
    return seen


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--entry", action="append", default=None, metavar="ARGS",
                        help="one python command's arguments (repeatable; default: see above)")
    parser.add_argument("--src", default=str(_ROOT / "src" / "repro"),
                        help="package whose functions are counted (default src/repro)")
    parser.add_argument("--top", type=int, default=None,
                        help="modules printed, most unreached first (default all)")
    parser.add_argument("--names", action="store_true",
                        help="also print each unreached function with its lines")
    args = parser.parse_args(argv)
    if args.top is not None and args.top < 0:
        parser.error(f"argument --top: {args.top} is negative")
    if args.entry is not None and not all(shlex.split(entry) for entry in args.entry):
        parser.error("argument --entry: an entry is empty")
    src = Path(args.src).resolve()
    if not src.is_dir():
        parser.error(f"argument --src: {args.src} is not a directory")
    entries = args.entry if args.entry is not None else default_entries()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        statuses = run_entries(entries, Path(tmp))
        seen = _read_seen(Path(tmp))
    report = unreached(src, seen)
    ranked = sorted(((row, module) for module, row in report.items() if row[0]),
                    key=lambda item: (-item[0][0], item[1]))
    for (lines, functions, _total), module in ranked[:args.top]:
        print(f"{lines:6d}  {module}  ({len(functions)} functions)")
        if args.names:
            for first, last, _starts, name in sorted(functions):
                print(f"{last - first + 1:14d}  {module}:{first} {name}")
    lines = sum(row[0] for row in report.values())
    total = sum(row[2] for row in report.values())
    functions = sum(len(row[1]) for row in report.values())
    print(f"total: {lines} of {total} function lines unreached, in {functions} functions")
    failed = [entry for entry, status in statuses if status != 0]
    print(json.dumps({
        "unreached_lines": lines, "function_lines": total, "unreached_functions": functions,
        "entries": entries, "failed_entries": failed,
        "modules": {module: row[0] for row, module in ranked},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
