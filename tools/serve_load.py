#!/usr/bin/env python3
"""Boot a live cell with ``repro serve``, load it with ``repro load``, stop it.

``repro serve --role cell`` writes its cell file once the cell is up;
``repro load --cell`` then drives it for one wall second.  The server
is terminated (SIGTERM: it shuts down cleanly) and reaped whatever
happens, so no process outlives this script::

    python3 tools/serve_load.py

``tools/reach.py`` runs it as one of its default entry points.  Exit
status: the load's, else the server's; 1 when the cell file never
appears.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: How long the cell may take to write its cell file.
_BOOT_TIMEOUT_S = 30.0
_LOAD_S = 1


def main() -> int:
    python = [sys.executable, "-m", "repro"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, path] if path else [_SRC]))
    with tempfile.TemporaryDirectory(prefix="serve-load-") as tmp:
        cell_file = os.path.join(tmp, "cell.json")
        # --run-for bounds the server's life should this script be killed.
        server = subprocess.Popen(python + [
            "serve", "--role", "cell", "--cell", cell_file, "--secret", "serve-load",
            "--run-for", str(_LOAD_S + 2 * _BOOT_TIMEOUT_S)], env=env)
        try:
            deadline = time.monotonic() + _BOOT_TIMEOUT_S
            while not os.path.exists(cell_file):  # written atomically
                if server.poll() is not None or time.monotonic() > deadline:
                    print("serve-load: the cell never wrote its cell file", file=sys.stderr)
                    return 1
                time.sleep(0.1)
            load = subprocess.run(python + [
                "load", "--cell", cell_file, "--secret", "serve-load", "--clients", "2",
                "--duration", str(_LOAD_S)], env=env)
        finally:
            server.terminate()
            try:
                server.wait(timeout=_BOOT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
    return load.returncode or server.returncode


if __name__ == "__main__":
    sys.exit(main())
