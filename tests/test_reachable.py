"""Every function in src/hypsurf is run by the CLI or a script, or is
named in `UNREACHED` with its reason.

The README's CLI lines, one small argv for each error exit of each
subcommand, and the three experiment scripts run here under a profile
hook that records every Python function entered, on the calling thread
(`sys.setprofile`) and on the worker threads of a fresh `pool`
(`threading.setprofile`).  A function that none of them enters is code
that only tests reach, so the set of such functions must equal the
allowlist below.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import shlex
import sys
import threading
from pathlib import Path

import pytest

import hypsurf
from hypsurf import cli, pool

from test_cli import readme_cli_lines

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hypsurf.__file__).resolve().parent

TRACER_NAMED = "perfbench's tracer rebinds it"

UNREACHED = {
    "groups.attracting_angle": TRACER_NAMED,
    "words.enumerate_reduced_words": TRACER_NAMED,
    "words.invert_images": TRACER_NAMED,
}

DESCRIPTIONS = {
    "desc.json": {"kind": "finite", "g": 1, "c": 0, "b": 1, "a": 0},
    "crosscap.json": {"kind": "finite", "g": 0, "c": 1, "b": 1, "a": 0},
    "closed.json": {"kind": "finite", "g": 2, "c": 0, "b": 0, "a": 0},
    "strip.json": {"kind": "strip"},
    "half.json": {"kind": "half_plane"},
    "boundary-only.json": {"kind": "infinite", "inf_boundary": True, "inf_chi": False},
    "infinite.json": {"kind": "infinite", "inf_boundary": False, "inf_chi": True},
    "unknown.json": {"kind": "torus"},
    "no-kind.json": {"g": 1},
    "short.json": {"kind": "finite", "g": 1},
}

#: (exit code, argv): the error exits, plus the variants the README lines miss
RUNS = [
    (0, "classify strip.json"), (0, "classify half.json"), (0, "classify closed.json"),
    (0, "classify crosscap.json"),
    (0, "classify boundary-only.json"), (0, "chi infinite.json"),
    (0, "double half.json"), (0, "double crosscap.json --report"),
    (2, "chi missing.json"), (2, "chi not-json.json"), (2, "chi latin1.json"),
    (2, "chi deep.json"),
    (2, "chi no-kind.json"),
    (2, "chi unknown.json"), (2, "chi short.json"), (2, "chi boundary-only.json"),
    (2, "double closed.json"), (2, "double crosscap.json"), (2, "double infinite.json"),
    (0, "pants --lengths 0,1,2"), (2, "pants --lengths 1,1"), (2, "pants --lengths=-1,1,1"),
    # numbers that underflow to 0, and a seam below the smallest normal double
    (2, "pants --lengths 2e-324,1,1"), (2, "plan --sig 1e-400,0,0,3"),
    (2, "plan --sig 0,0,3,0 --lengths 1e-400,1,1"), (3, "pants --lengths 3000,3000,3000"),
    (0, "plan --sig 1,2,2,1 --lengths 1,2"), (2, "plan --sig 0,0,2,0 --lengths 1,1"),
    (2, "plan --sig 0,0,3,0 --lengths 1"), (2, "plan --sig 1.5,0,0,0"),
    (2, "plan --sig 1,0,0"), (2, "plan --sig 50002,0,0,0"),
    (0, "limit-set --group cusped-torus --n 2 --mode orbit --format json"),
    # 265,724 axis endpoints: the net runs in sectors
    (0, "limit-set --group cusped-torus --n 11 -o torus-n11.csv"),
    (2, "limit-set --group octagon --n 8"), (2, "limit-set --group octagon --n 0"),
    (2, "limit-set --group octagon --n 2 -o missing/sample.csv"),
    *([(2, "limit-set --group octagon --n 2 -o /dev/full")] if os.path.exists("/dev/full")
      else []),
    (2, "limit-set --group octagon --n 2 --mode orbit --delta 2"),
    (2, "limit-set --group octagon --n 1 --mode orbit --delta 0.001"),
    (2, "limit-set --group octagon --n 2 --mode orbit --base 2,0"),
    # a kept base point: its angle is reduced by `disk.reduce_angle`
    (0, "limit-set --group octagon --n 2 --mode orbit --base=0.9,0"),
    (2, "limit-set --group octagon --n 2 --separation 4"),
    (2, "limit-set --group schottky --separation 1 --n 2"),
    # both have cosh(s/2) = 1, so sqrt(2) cosh(s/2) <= 2: half of 5e-324
    # underflows to 0, and 1e-17's letters keep b = 5e-18
    (2, "limit-set --group schottky --separation 5e-324 --n 2"),
    (2, "limit-set --group schottky --separation 1e-17 --n 2"),
    (3, "limit-set --group schottky --separation 1000 --n 2"),
    (3, "limit-set --group schottky --separation 1500 --n 2"),
    (0, "boundary-map --group schottky --aut A=AB,B=B --n 3"),
    (0, "boundary-map --group cusped-torus --aut A=a,B=B --n 3 --check-identity -o out.json"
        " --format json"),
    (2, "boundary-map --group octagon --aut A=AB --n 2"),
    (2, "boundary-map --group schottky --aut A=AA,B=B --n 3"),
    (2, "boundary-map --group schottky --aut A --n 3"),
    (2, "boundary-map --group cusped-torus --aut A=AB,B=B --n 0"),
    # periods past 2**64 would be typed object
    (2, "boundary-map --group cusped-torus --aut A=AB,B=B --n 18446744073709551616"),
    (0, "boundary-map --group cusped-torus --aut A=AB,B=B --n 1 --check-identity"),
    (2, "boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --check-identity --m -1"),
    (2, "boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --m 2"),
    (0, "boundary-map --group schottky --separation 12 --aut A=AB,B=B --n 4"),
    # some inner corrections act as 0/0 at a sampled point
    (0, "boundary-map --group schottky --separation 37 --aut A=A,B=B --n 3 --check-identity"),
]

SCRIPTS = [
    ("cantor_gaps.py", "--n 3 --n2 4"),
    ("limit_set_density.py", "--max-n 3"),
    ("mapping_class_residuals.py", "--n 3 --max-depth 1"),
]


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> "module.Qual.name" for
    every def in the package, nested ones included."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), f"{path.stem}.")
    return out


def clear_caches():
    # a cached function that an earlier test filled would not be entered
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("hypsurf."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_everything(workdir: Path):
    for name, obj in DESCRIPTIONS.items():
        (workdir / name).write_text(json.dumps(obj))
    (workdir / "not-json.json").write_text("{")
    (workdir / "latin1.json").write_bytes(b"\xff")
    (workdir / "deep.json").write_text("[" * 100_000)
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for line in readme_cli_lines():
            codes.append((0, line, cli.main(shlex.split(line, comments=True)[1:])))
        for expected, line in RUNS:
            codes.append((expected, line, cli.main(line.split())))
        for name, args in SCRIPTS:
            argv = sys.argv
            sys.argv = [name, *args.split()]
            try:
                runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
            except SystemExit as e:
                codes.append((0, name, e.code))
            finally:
                sys.argv = argv
    return codes


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("reach")
    defined = defined_functions()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    # clearing the caches drops the pool too: the next one starts its
    # threads under the hook
    clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            codes = run_everything(workdir)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            pool._pool()[0].shutdown()
            pool._pool.cache_clear()
    reached = {name for key, name in defined.items() if key in entered}
    return codes, set(defined.values()) - reached


def test_every_run_exits_as_expected(trace):
    codes, _ = trace
    assert [(line, code) for expected, line, code in codes if code != expected] == []


def test_unreached_functions_are_the_allowlist(trace):
    _, unreached = trace
    assert unreached - set(UNREACHED) == set(), "only tests reach these"
    assert set(UNREACHED) - unreached == set(), "reached now: drop them from UNREACHED"


def test_allowlisted_names_exist():
    assert set(UNREACHED) <= set(defined_functions().values())
