#!/usr/bin/env python3
"""Boundary-identity residuals of a few mapping classes.

For each automorphism, report the best inner-corrected deviation of its
sampled circle map at increasing search depths: inner automorphisms
collapse to ~0 once the depth reaches their conjugator, genuine twists
hit a residual floor.
"""

import argparse
import sys

from hypsurf.boundary import FreeAutomorphism, induced_boundary_sample, is_boundary_identity
from hypsurf.groups import cusped_torus_group
from hypsurf.jsontext import dump_json
from hypsurf.words import GroupWord

CASES = {
    "identity": FreeAutomorphism.identity(2),
    "inner-A": FreeAutomorphism.inner(2, GroupWord.from_string("A")),
    "inner-AB": FreeAutomorphism.inner(2, GroupWord.from_string("AB")),
    "twist": FreeAutomorphism.from_spec("A=AB,B=B"),
    "twist-inverse": FreeAutomorphism.from_spec("A=Ab,B=B"),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5, help="conjugacy-class length cutoff")
    ap.add_argument("--max-depth", type=int, default=3)
    ap.add_argument("--output", "-o", default=None)
    args = ap.parse_args()

    rep = cusped_torus_group()
    rows = []
    for name, phi in CASES.items():
        sample = induced_boundary_sample(rep, phi, args.n)
        residuals = {}
        for m in range(args.max_depth + 1):
            r = is_boundary_identity(rep, sample, m=m)
            residuals[str(m)] = r.residual
        rows.append(
            {
                "automorphism": name,
                "spec": phi.spec_string(),
                "residual_by_depth": residuals,
            }
        )
    text = dump_json({"group": rep.label, "n": args.n, "rows": rows})
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
