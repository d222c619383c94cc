#!/usr/bin/env python3
"""Gap persistence across Schottky separations.

For each separation, compare the top gaps of the fixed-point sample at
two word lengths; persistent gaps are the numerical signature of a
Cantor limit set, while a shrinking top gap signals density.
"""

import argparse
import sys

from hypsurf.disk import DiskPoint
from hypsurf.groups import SampleMode, gap_profile, limit_sample, schottky_rank2
from hypsurf.text import dump_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--separations", default="2.0,3.0,4.0,5.0",
                    help="comma-separated translation lengths")
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--n2", type=int, default=6)
    ap.add_argument("--top", type=int, default=4)
    ap.add_argument("--output", "-o", default=None)
    args = ap.parse_args()

    rows = []
    for sep in (float(x) for x in args.separations.split(",")):
        rep = schottky_rank2(sep)
        prof1 = gap_profile(limit_sample(rep, DiskPoint(0), args.n, SampleMode.AXIS_ENDPOINTS))
        prof2 = gap_profile(limit_sample(rep, DiskPoint(0), args.n2, SampleMode.AXIS_ENDPOINTS))
        rows.append(
            {
                "separation": sep,
                "top_gaps_n": prof1[: args.top],
                "top_gaps_n2": prof2[: args.top],
                "top_gap_change": abs(prof1[0] - prof2[0]),
            }
        )
    text = dump_json({"n": args.n, "n2": args.n2, "rows": rows})
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
