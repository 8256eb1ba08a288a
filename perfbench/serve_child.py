"""``repro serve`` with the serve layers wrapped in spans.

Usage: ``python3 perfbench/serve_child.py TRACE_OUT serve --db ... [args]``.
Runs the program's own CLI in this process after installing the
wrappers, and writes the spans to TRACE_OUT when the server stops
(SIGTERM or SIGINT).  The patch targets that do not exist are written,
as a JSON list, to ``TRACE_OUT.absent`` before the server starts.
"""

from __future__ import annotations

import json
import sys

import layers
from spans import Recorder


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    recorder = Recorder()
    absent = layers.install_serve(recorder)
    with open(out + ".absent", "w", encoding="utf-8") as handle:
        json.dump(absent, handle)
    from repro.cli import main as repro_main

    try:
        return repro_main(args)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
