#!/usr/bin/env python3
"""Sweep the fixed-point sample of a group over word lengths and record
how the largest angular gap closes (or refuses to).

Writes one CSV row per word length: n, sample size, max gap, top-5 gaps.
"""

import argparse
import sys

from hypsurf.disk import DiskPoint
from hypsurf.groups import (
    SampleMode,
    cusped_torus_group,
    gap_profile,
    limit_sample,
    max_angular_gap,
    octagon_group,
    schottky_rank2,
)
from hypsurf.text import format_float

GROUPS = {
    "octagon": octagon_group,
    "schottky": lambda: schottky_rank2(4.0),
    "cusped-torus": cusped_torus_group,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--group", choices=sorted(GROUPS), default="octagon")
    ap.add_argument("--max-n", type=int, default=6)
    ap.add_argument("--mode", choices=("axes", "orbit"), default="axes")
    ap.add_argument("--output", "-o", default=None)
    args = ap.parse_args()

    rep = GROUPS[args.group]()
    mode = SampleMode.AXIS_ENDPOINTS if args.mode == "axes" else SampleMode.ORBIT_PROJECTION
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        out.write("n,sample_size,max_gap,gap2,gap3,gap4,gap5\n")
        for n in range(1, args.max_n + 1):
            s = limit_sample(rep, DiskPoint(0), n, mode)
            prof = gap_profile(s)[:5]
            prof += [float("nan")] * (5 - len(prof))
            row = [str(n), str(len(s)), format_float(max_angular_gap(s))]
            row += [format_float(g) for g in prof[1:]]
            out.write(",".join(row) + "\n")
    finally:
        if args.output:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
