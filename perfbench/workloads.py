"""Workload definitions and the round runner.

A workload is a fixed list of CLI invocations (operations).  One round
runs every operation once through ``hypsurf.cli.main(argv)`` in the
current process, with each operation's stdout, stderr and ``-o`` file
written to a round directory.  This module imports nothing heavier than
the standard library, so the peak-memory pass that runs a round in a
fresh interpreter (``child.py``) measures the program, not the checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import calibrate
#: the checkout the benchmark runs in, and where runs keep their files
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: the operation the word-table renormalisation cancellation breaks
#: (groups._word_levels); it is kept and counted as failed
SCHOTTKY_N10_ERROR = "NumericFailure"


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``argv`` may contain ``{dir}``, replaced by the round directory.
    ``kind`` selects the output check and ``spec`` holds what it needs.
    ``output`` names the ``-o`` file, if any; stdout is always kept.
    """

    name: str
    argv: tuple[str, ...]
    kind: str
    spec: dict = field(default_factory=dict)
    output: Optional[str] = None
    inputs: tuple[tuple[str, str], ...] = ()
    expected_error: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: expressions over hypsurf.groups that build the workload's group
    #: representations; the set-up probe times them after importing the CLI
    groups: tuple[str, ...]
    ops: tuple[Op, ...]


@dataclass
class OpResult:
    name: str
    rc: Optional[int]
    error: Optional[str]
    #: the call's time in reference seconds (see calibrate.py)
    seconds: float
    digests: dict[str, str]
    bytes_written: int

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "OpResult":
        return cls(**obj)


# ---------------------------------------------------------------------------
# limit-dense


def _limit_set(name, group, n, fmt, mode="axes", separation=None, expected_error=None,
               **checks):
    ext = "csv" if fmt == "csv" else "json"
    output = f"{name}.{ext}"
    argv = ["limit-set", "--group", group, "--n", str(n), "--mode", mode,
            "--format", fmt]
    if separation is not None:
        argv += ["--separation", repr(separation)]
    argv += ["-o", "{dir}/" + output]
    spec = {"group": group, "n": n, "mode": mode, "format": fmt,
            "separation": separation, "delta": 0.2, **checks}
    return Op(name, tuple(argv), "endpoints", spec, output,
              expected_error=expected_error)


def _limit_dense() -> tuple[Op, ...]:
    return (
        _limit_set("octagon-axes-n7", "octagon", 7, "csv", max_gap_below=0.2),
        _limit_set("octagon-orbit-n6", "octagon", 6, "json", mode="orbit"),
        _limit_set("schottky4-axes-n9", "schottky", 9, "csv", separation=4.0,
                   top_gap_persists_from=8),
        _limit_set("schottky4-axes-n10", "schottky", 10, "csv", separation=4.0,
                   expected_error=SCHOTTKY_N10_ERROR),
    )


# ---------------------------------------------------------------------------
# boundary-verdict


def _boundary(name, group, aut, n, identity, best_inner=None, separation=None):
    output = f"{name}.csv"
    argv = ["boundary-map", "--group", group, "--aut", aut, "--n", str(n)]
    if separation is not None:
        argv += ["--separation", repr(separation)]
    argv += ["--check-identity", "-o", "{dir}/" + output]
    spec = {"group": group, "aut": aut, "n": n, "separation": separation,
            "identity": identity, "best_inner": best_inner}
    return Op(name, tuple(argv), "circle-map", spec, output)


def _boundary_verdict() -> tuple[Op, ...]:
    return (
        _boundary("torus-twist-n9", "cusped-torus", "A=AB,B=B", 9, identity=False),
        _boundary("torus-identity-n8", "cusped-torus", "A=A,B=B", 8, identity=True,
                  best_inner="1"),
        _boundary("octagon-inner-a-n5", "octagon", "A=A,B=ABa,C=ACa,D=ADa", 5,
                  identity=True, best_inner="a"),
        _boundary("schottky2-twist-n8", "schottky", "A=AB,B=B", 8, identity=False,
                  separation=2.0),
    )


# ---------------------------------------------------------------------------
# pants-ladder

#: (g, c, b, a) rungs, up to about 300 pants: closed orientable,
#: closed nonorientable, bounded, cusped, and mixed
PLAN_LADDER = (
    (2, 0, 0, 0),
    (10, 0, 0, 0),
    (40, 0, 0, 0),
    (150, 0, 0, 0),
    (0, 300, 0, 0),
    (0, 0, 3, 0),
    (20, 0, 60, 0),
    (0, 0, 0, 300),
    (50, 40, 30, 80),
    (3, 2, 5, 4),
)


def scan_descriptions() -> list[dict]:
    """The acceptance scan: every finite (g, c, b, a) with
    2g + c + b + a <= 4, then the half plane, the strip and the three
    infinite-type descriptions."""
    out = []
    for g in range(3):
        for c in range(5 - 2 * g):
            for b in range(5 - 2 * g - c):
                for a in range(5 - 2 * g - c - b):
                    out.append({"kind": "finite", "g": g, "c": c, "b": b, "a": a})
    out += [
        {"kind": "half_plane"},
        {"kind": "strip"},
        {"kind": "infinite", "inf_boundary": True, "inf_chi": False},
        {"kind": "infinite", "inf_boundary": False, "inf_chi": True},
        {"kind": "infinite", "inf_boundary": True, "inf_chi": True},
    ]
    return out


def chi_is_defined(d: dict) -> bool:
    """chi of infinitely many boundary lines alone is undetermined."""
    return not (d["kind"] == "infinite" and not d["inf_chi"])


def double_is_defined(d: dict) -> bool:
    """Doubling needs a boundary: compact circles or noncompact lines."""
    return d["kind"] in ("half_plane", "strip") or (d["kind"] == "finite" and d["b"] > 0)


def _pants_ladder(seed: int) -> tuple[Op, ...]:
    rng = random.Random(f"pants-ladder:{seed}")
    ops = []
    for g, c, b, a in PLAN_LADDER:
        lengths = [round(rng.uniform(0.5, 6.0), 6) for _ in range(b)]
        name = f"plan-{g}-{c}-{b}-{a}"
        argv = ["plan", "--sig", f"{g},{c},{b},{a}"]
        if lengths:
            argv += ["--lengths", ",".join(repr(x) for x in lengths)]
        argv += ["-o", "{dir}/" + name + ".json"]
        ops.append(Op(name, tuple(argv), "plan",
                      {"sig": (g, c, b, a), "lengths": lengths}, name + ".json"))
    for i, d in enumerate(scan_descriptions()):
        desc_file = (f"desc-{i:02d}.json", json.dumps(d))
        path = "{dir}/" + desc_file[0]
        ops.append(Op(f"classify-{i:02d}", ("classify", path), "classify",
                      {"description": d}, inputs=(desc_file,)))
        if chi_is_defined(d):
            ops.append(Op(f"chi-{i:02d}", ("chi", path), "chi",
                          {"description": d}, inputs=(desc_file,)))
        if double_is_defined(d):
            ops.append(Op(f"double-{i:02d}", ("double", path, "--report"), "double",
                          {"description": d}, inputs=(desc_file,)))
    return tuple(ops)


# ---------------------------------------------------------------------------

#: workload -> the group representations its set-up builds (why each
#: workload exists is recorded in BENCHMARK.json and README.md)
WORKLOADS = {
    "limit-dense": ("octagon_group()", "schottky_rank2(4.0)"),
    "boundary-verdict": ("cusped_torus_group()", "octagon_group()", "schottky_rank2(2.0)"),
    "pants-ladder": (),
}


def build(name: str, seed: int) -> Workload:
    if name == "limit-dense":
        ops = _limit_dense()
    elif name == "boundary-verdict":
        ops = _boundary_verdict()
    else:
        ops = _pants_ladder(seed)
    return Workload(name, WORKLOADS[name], ops)


# ---------------------------------------------------------------------------
# running


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_paths(op: Op, rdir: Path) -> dict[str, Path]:
    """Every file an operation writes, by artifact name."""
    out = {f"{op.name}.stdout": rdir / f"{op.name}.stdout",
           f"{op.name}.stderr": rdir / f"{op.name}.stderr"}
    if op.output is not None and (rdir / op.output).exists():
        out[op.output] = rdir / op.output
    return out


def _error_class(stderr_path: Path) -> Optional[str]:
    text = stderr_path.read_text(encoding="utf-8").strip()
    if not text:
        return None
    try:
        return json.loads(text.splitlines()[-1]).get("error")
    except (json.JSONDecodeError, AttributeError):
        return "unparsed stderr"


def run_op(op: Op, cli_main: Callable, rdir: Path, clock: calibrate.Clock) -> OpResult:
    """Run one operation; only the ``cli_main`` call is timed."""
    argv = [a.format(dir=rdir) for a in op.argv]
    if op.output is not None:
        (rdir / op.output).unlink(missing_ok=True)
    out_path = rdir / f"{op.name}.stdout"
    err_path = rdir / f"{op.name}.stderr"
    with open(out_path, "w", encoding="utf-8") as out, \
            open(err_path, "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        def call():
            try:
                return cli_main(argv)
            except Exception as e:  # a crash is a failed operation, not a dead run
                traceback.print_exc(file=err)
                err.write(json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
                return None

        rc, _wall, seconds = clock.time(call)
    paths = artifact_paths(op, rdir)
    return OpResult(
        name=op.name,
        rc=rc,
        error=_error_class(err_path),
        seconds=seconds,
        digests={k: sha256_file(p) for k, p in paths.items()},
        bytes_written=sum(p.stat().st_size for k, p in paths.items()
                          if not k.endswith(".stderr")),
    )


def write_inputs(workload: Workload, rdir: Path) -> None:
    rdir.mkdir(parents=True, exist_ok=True)
    files = {fname: text for op in workload.ops for fname, text in op.inputs}
    for fname, text in files.items():
        (rdir / fname).write_text(text, encoding="utf-8")


def run_round(workload: Workload, cli_main: Callable, rdir: Path,
              clock: calibrate.Clock) -> list[OpResult]:
    write_inputs(workload, rdir)
    return [run_op(op, cli_main, rdir, clock) for op in workload.ops]


def round_digests(results: list[OpResult]) -> dict[str, str]:
    out: dict[str, str] = {}
    for r in results:
        out.update(r.digests)
    return out


def classify_outcome(op: Op, result: OpResult) -> str:
    """"ok", "expected-failure" (counted failed, run stays correct) or
    "unexpected-failure" (counted failed, run is not correct)."""
    if result.rc == 0:
        return "ok"
    if op.expected_error is not None and result.rc == 3 and result.error == op.expected_error:
        return "expected-failure"
    return "unexpected-failure"
