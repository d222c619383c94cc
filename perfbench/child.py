"""Run one round of a workload in this fresh interpreter.

Prints one JSON line: the round's operation results (exit codes, error
classes, artifact digests) and this process's peak resident memory.

    python3 perfbench/child.py --workload limit-dense --seed 0 --out DIR [--src SRC]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import calibrate
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--src", type=Path, default=workloads.ROOT / "src",
                    help="directory holding the hypsurf package to run")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from hypsurf.cli import main as cli_main

    wl = workloads.build(args.workload, args.seed)
    results = workloads.run_round(wl, cli_main, args.out, calibrate.Clock())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": peak_kb, "results": [r.to_json() for r in results]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
