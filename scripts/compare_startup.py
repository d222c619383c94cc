#!/usr/bin/env python3
"""Start-up cost of the CLI: this checkout against the commit PARENT.

Runs each argv of `ARGVS` as a fresh `python -m hypsurf` process,
alternating between a `git archive` of PARENT's `src` and this checkout's
`src`, and prints per argv and side the median wall time and the peak
resident memory of the process (its `ru_maxrss`, from `os.wait4`), each
with its quartiles:

    python3 scripts/compare_startup.py PARENT [--repeats N]

Each side runs each argv once, untimed, before the timed runs.  Every
run must exit 0 with nothing on stderr.  The wall time covers the whole
process: the interpreter's start, hypsurf's imports (with numpy's, where a
subcommand loads it) and the subcommand's work, which is kept small.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESCRIPTION = '{"kind":"finite","g":1,"c":0,"b":1,"a":0}'
#: small runs of each subcommand; desc.json holds DESCRIPTION
ARGVS = (
    ("classify", "desc.json"),
    ("chi", "desc.json"),
    ("plan", "--sig", "150,0,0,0"),
    ("thirteen",),
    ("pants", "--lengths", "2,2,2"),
    ("limit-set", "--group", "octagon", "--n", "3"),
    ("boundary-map", "--group", "cusped-torus", "--aut", "A=AB,B=B", "--n", "4"),
)


def archive_src(commit: str, into: Path) -> Path:
    """PARENT's src tree, extracted from `git archive` under into."""
    proc = subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git archive {commit}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run_once(src: Path, argv: tuple[str, ...], cwd: Path) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one `python -m hypsurf argv`."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + rest if rest else "")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hypsurf", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0 or err:
        raise SystemExit(f"error: {' '.join(argv)} with {src} exited {proc.returncode}: "
                         f"{err.decode().strip()}")
    return seconds, usage.ru_maxrss / 1024.0  # KiB on Linux


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", metavar="PARENT", help="the commit to compare against")
    ap.add_argument("--repeats", type=int, default=21, help="timed runs per argv and side")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "desc.json").write_text(DESCRIPTION)
        sides = {"parent": archive_src(args.parent, work / "parent"), "this": ROOT / "src"}
        print(f"{'argv':58} {'side':6} {'wall ms median [q1, q3]':>28} "
              f"{'maxrss MB median [q1, q3]':>28}")
        for argv in ARGVS:
            for src in sides.values():
                run_once(src, argv, work)
            runs = {side: [] for side in sides}
            for k in range(args.repeats):
                # each side goes first in every other pair
                for side in sorted(sides, reverse=k % 2 == 1):
                    runs[side].append(run_once(sides[side], argv, work))
            for side, pairs in runs.items():
                q1, med, q3 = quartiles([1e3 * s for s, _ in pairs])
                r1, rmed, r3 = quartiles([mb for _, mb in pairs])
                print(f"{' '.join(argv):58} {side:6} {med:9.1f} [{q1:7.1f}, {q3:7.1f}] "
                      f"{rmed:9.2f} [{r1:7.2f}, {r3:7.2f}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
