"""hypsurf benchmark: one workload, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Every operation goes through ``hypsurf.cli.main(argv)`` in this process,
with its artifacts written under ./.perfbench_out.  Whole rounds of the
workload's operations repeat until S seconds have passed.

--trace 0 reports the end-to-end metrics: items_per_s (each operation
timed in reference seconds, see calibrate.py, as its median over the
rounds), setup_s (median of fresh-interpreter probes) and peak_rss_mb (one round in a child
interpreter, untimed; its artifacts are the ones checked, and every
timed round must reproduce them byte for byte).
--trace 1 wraps the program's public functions in spans, writes them to
./.perfbench_out/<workload>/spans.jsonl and reports the per-layer
metrics.  The seed picks the spot-checked rows and the pants-ladder
boundary lengths.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import table
import tracing
import workloads

ROOT, OUT = workloads.ROOT, workloads.OUT
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
#: fresh-interpreter set-up probes per run, after one untimed warm-up
SETUP_REPEATS = 11
#: a limit-dense round takes 10-16 s on a 2-vCPU VM; one round alone
#: would leave a run's figure to a single sample of the host's speed
MIN_ROUNDS = 2


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """hypsurf.cli from this checkout's src, never from elsewhere."""
    if not (SRC / "hypsurf" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'hypsurf'} not found; run from a hypsurf checkout")
    sys.path.insert(0, str(SRC))
    import hypsurf.cli

    if SRC.resolve() not in Path(hypsurf.cli.__file__).resolve().parents:
        raise SystemExit(f"error: hypsurf imported from {hypsurf.cli.__file__}, not {SRC}")
    return hypsurf.cli


def child_env() -> dict:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def setup_probe(wl: workloads.Workload) -> float:
    """Seconds from starting a fresh interpreter until hypsurf.cli is
    imported and the workload's group representations are built."""
    code = "; ".join(
        ["import hypsurf.cli",
         "from hypsurf.groups import cusped_torus_group, octagon_group, schottky_rank2",
         *wl.groups,
         "print('ready', flush=True)"])
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT) as p:
        line = p.stdout.readline()
        seconds = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or line.strip() != b"ready":
        raise SystemExit(f"error: set-up probe failed with exit code {p.returncode}")
    return seconds


def peak_rss_pass(wl: workloads.Workload, seed: int, ref_dir: Path):
    """One round in a child interpreter: (peak RSS in MB, its results)."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--workload", wl.name, "--seed", str(seed),
         "--out", str(ref_dir), "--src", str(SRC)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: peak-memory pass failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    results = [workloads.OpResult.from_json(r) for r in report["results"]]
    return report["maxrss_kb"] / 1024.0, results


def run_rounds(wl, cli, seconds: float, first_dir: Path, rest_dir: Path, tracer=None):
    """Whole rounds until `seconds` have passed and at least MIN_ROUNDS
    have run, each operation timed in reference seconds.  The first round
    writes to first_dir, later ones to rest_dir."""
    clock = calibrate.Clock()
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.round = len(rounds)
        rdir = first_dir if not rounds else rest_dir
        rounds.append(workloads.run_round(wl, cli.main, rdir, clock))
    return rounds


def account(wl, rounds, ref_results, ref_dir: Path, seed: int):
    """Check the reference artifacts and every round against them.
    Returns (items per op, failed count, problems, byte_identical)."""
    import checks  # mpmath stays out of the peak-memory child

    items, problems = checks.check_round(wl, ref_results, ref_dir, seed)
    ref_digests = workloads.round_digests(ref_results)
    failed = 0
    identical = True
    for k, results in enumerate(rounds):
        for op, res in zip(wl.ops, results):
            outcome = workloads.classify_outcome(op, res)
            if outcome != "ok":
                failed += 1
            if outcome == "unexpected-failure":
                problems.append(f"round {k}: {op.name}: exit {res.rc} ({res.error})")
        if workloads.round_digests(results) != ref_digests:
            identical = False
            problems.append(f"round {k}: artifacts differ from the reference pass")
    return items, failed, problems, identical


def items_per_second(rounds, items) -> float:
    """Items of one round over the reference time of one round, each
    operation's time taken as its median over the rounds (a stall hits
    one operation of one round, not the whole figure)."""
    seconds = sum(statistics.median(results[i].seconds for results in rounds)
                  for i in range(len(rounds[0])))
    return sum(items.values()) / seconds


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_program()
    wl = workloads.build(args.workload, args.seed)
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            result = traced_run(wl, cli, args, work, out_dir)
        else:
            result = plain_run(wl, cli, args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    if args.trace:
        log(table.table_for(wl.name))
    print(json.dumps(result))
    return 0


def _report(wl, rounds, failed, problems, identical, out_dir, ref_results, seed) -> None:
    digests = workloads.round_digests(ref_results)
    (out_dir / "digests.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "rounds": len(rounds),
         "byte_identical": identical, "artifacts": digests}, indent=1, sort_keys=True) + "\n")
    log(f"{wl.name}: attempted {len(rounds) * len(wl.ops)} "
        f"({len(rounds)} rounds x {len(wl.ops)} operations), failed {failed}")
    for op in wl.ops:
        if op.expected_error is not None:
            log(f"  {op.name}: expected to fail with exit 3 {op.expected_error}")
    log(f"  {len(digests)} artifacts, byte-identical across rounds: {identical}")
    for p in problems:
        log(f"  PROBLEM: {p}")


def plain_run(wl, cli, args, work: Path, out_dir: Path) -> dict:
    setup_probe(wl)  # warm-up: bytecode caches, file cache
    setup = statistics.median(setup_probe(wl) for _ in range(SETUP_REPEATS))
    rss_mb, ref_results = peak_rss_pass(wl, args.seed, work / "ref")
    rounds = run_rounds(wl, cli, args.seconds, work / "round", work / "round")
    items, failed, problems, identical = account(wl, rounds, ref_results, work / "ref", args.seed)
    _report(wl, rounds, failed, problems, identical, out_dir, ref_results, args.seed)
    rate = items_per_second(rounds, items)
    return {
        "correct": not problems,
        "attempted": len(rounds) * len(wl.ops),
        "failed": failed,
        "metrics": {
            "items_per_s": metric(rate, "items/s"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        },
    }


def traced_run(wl, cli, args, work: Path, out_dir: Path) -> dict:
    tracer = tracing.Tracer()
    with tracer:
        rounds = run_rounds(wl, cli, args.seconds, work / "first", work / "round", tracer)
    items, failed, problems, identical = account(wl, rounds, rounds[0], work / "first", args.seed)
    _report(wl, rounds, failed, problems, identical, out_dir, rounds[0], args.seed)
    for k, results in enumerate(rounds):
        tracer.annotate_roots(k, [r.bytes_written for r in results])
    tracer.write(out_dir / "spans.jsonl")
    layer = table.layer_metrics(wl.name)
    layer["trace.items_per_s"] = items_per_second(rounds, items)
    return {
        "correct": not problems,
        "attempted": len(rounds) * len(wl.ops),
        "failed": failed,
        "metrics": {name: metric(layer[name], unit)
                    for name, (unit, _moves) in tracing.METRICS.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
