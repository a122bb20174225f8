#!/usr/bin/env python3
"""Start the cli workload's requests, one at a time.

    python3 bench/launcher.py

Reads one JSON list (a command line) per line of standard input, runs it
to its end (killing it after TIMEOUT_S) and answers with one JSON line:
exit code, stdout, stderr and the peak resident set size of all requests
so far in KiB.  Exits at the
end of its input.  Requests start from this small process rather than
from the benchmark: a child counts the memory of the process it was
forked from in its own peak until it execs.
"""

import json
import resource
import subprocess
import sys
import threading

TIMEOUT_S = 150


def main() -> int:
    for line in sys.stdin:
        with subprocess.Popen(json.loads(line), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            # communicate(timeout=...) polls for the exit in steps of up
            # to 50 ms, which would show in the request times
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out, err = proc.communicate()
            finally:
                watchdog.cancel()
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({"code": proc.returncode, "stdout": out,
                                     "stderr": err, "maxrss_kib": rss}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
