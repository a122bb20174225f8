#!/usr/bin/env python3
"""Recompute bench/grope_table.json, the stored grope-degree table.

    python3 bench/rebuild_grope_table.py

Its dimensions (grope degrees 2-7) have no closed form to check against,
so the grope_calculus workload compares with this stored copy.  Rebuild
it only after showing that a change of the table is right.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from knotbench.diagrams import dim_graded_piece  # noqa: E402

from workloads import GROPE_DEGREES, GROPE_TABLE  # noqa: E402


def main() -> int:
    rows = [dim_graded_piece(i, "grope") for i in GROPE_DEGREES]
    table = {
        "grading": "grope",
        "dimension": {str(r["degree"]): r["dimension"] for r in rows},
        "num_diagrams": {str(r["degree"]): r["num_diagrams"] for r in rows},
    }
    with open(GROPE_TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2)
        fh.write("\n")
    print(json.dumps(table["dimension"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
