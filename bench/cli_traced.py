#!/usr/bin/env python3
"""Run one knotbench CLI request with the benchmark's tracer installed.

    python3 bench/cli_traced.py TRACE.json <knotbench arguments...>

Installs the wrappers of bench/tracer.py, calls ``knotbench.cli.main``
with the remaining arguments, writes the per-function aggregates to
TRACE.json and exits with the CLI's exit code.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import knotbench.cli as cli
    tracer.active = True
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
