"""sha256 of every artifact one round of each workload writes.

    python3 perfbench/digests.py [--src DIR] [-o FILE] [--compare FILE]

Every workload runs once, with seed 0, in a fresh interpreter against
the hypsurf package in DIR (default: this checkout's src), so the digests of two
commits can be taken with the same benchmark code.  The digests are
printed as JSON (and written to FILE with -o).  With --compare, they are
checked against an earlier digest file: the exit code is 1 if any
artifact differs, is missing, or is new.

To show that a change leaves every artifact byte-identical:

    git archive PARENT | tar -x -C /tmp/parent
    python3 perfbench/digests.py --src /tmp/parent/src -o parent.json
    python3 perfbench/digests.py --compare parent.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from workloads import OUT, ROOT


#: the seed of every digest round, so two digest files always compare
SEED = 0


def workload_digests(name: str, src: Path) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", name,
             "--seed", str(SEED), "--out", str(work), "--src", str(src)],
            capture_output=True, text=True, cwd=ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {name} round failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    results = [workloads.OpResult.from_json(r) for r in report["results"]]
    return workloads.round_digests(results)


def compare(mine: dict, theirs: dict) -> list[str]:
    diffs = []
    for name in sorted(set(mine) | set(theirs)):
        a, b = mine.get(name, {}), theirs.get(name, {})
        for art in sorted(set(a) | set(b)):
            if a.get(art) != b.get(art):
                diffs.append(f"{name}/{art}: {b.get(art, 'missing')} -> {a.get(art, 'missing')}")
    return diffs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("-o", "--output", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    if not (args.src / "hypsurf" / "cli.py").is_file():
        raise SystemExit(f"error: no hypsurf package under {args.src}")

    doc = {n: workload_digests(n, args.src.resolve()) for n in workloads.WORKLOADS}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
    print(text, end="")
    if args.compare:
        diffs = compare(doc, json.loads(args.compare.read_text()))
        for d in diffs:
            print(f"DIFFERS {d}", file=sys.stderr)
        print(f"{'byte-identical' if not diffs else f'{len(diffs)} artifacts differ'} "
              f"against {args.compare}", file=sys.stderr)
        return 1 if diffs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
