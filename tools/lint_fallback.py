#!/usr/bin/env python3
"""Unused-import scan for containers without ``ruff`` (``make lint`` falls
back to it).  A small subset of pyflakes' F401, from the stdlib ``ast``:

    python3 tools/lint_fallback.py src/repro/core src/repro/net ...

An import is unused when the name it binds is never read in the module,
is not listed in ``__all__``, and its line carries no ``# noqa``.
Quoted annotations are parsed, so a name read only there counts as used;
``__init__.py`` files are skipped (their imports are re-exports).
Exit status 1 when anything is reported, 2 on a file that does not parse.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple


def _bound_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _exported(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and node.value:
            names.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return names


def _string_annotations(tree: ast.Module) -> Iterator[str]:
    """Quoted annotations (``"asyncio.Future[T]"``): names read only there."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            roots = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            roots = [node.annotation]
        else:
            continue
        for root in filter(None, roots):
            for child in ast.walk(root):
                if isinstance(child, ast.Constant) and isinstance(child.value, str):
                    yield child.value


def _names_in(annotation: str) -> set:
    try:
        parsed = ast.parse(annotation, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name for text in _string_annotations(tree) for name in _names_in(text)}
    used |= _exported(tree)
    return sorted(
        (lineno, name)
        for name, lineno in _bound_imports(tree)
        if name not in used and "noqa" not in lines[lineno - 1]
    )


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    files = sorted(
        file
        for root in map(Path, argv)
        for file in ([root] if root.is_file() else root.rglob("*.py"))
        if file.name != "__init__.py"
    )
    status = 0
    for file in files:
        try:
            found = unused_imports(file)
        except SyntaxError as exc:
            print(f"{file}:{exc.lineno}: does not parse: {exc.msg}")
            return 2
        for lineno, name in found:
            print(f"{file}:{lineno}: F401 '{name}' imported but unused")
            status = 1
    print(f"lint_fallback: {len(files)} files, {'clean' if status == 0 else 'unused imports found'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
