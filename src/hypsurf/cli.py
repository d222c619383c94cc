"""Command-line surface over the library.

Subcommands mirror the modules: chi / classify / double / thirteen for
the signature calculus, pants / plan for hyperbolic metrics, limit-set
for endpoint samples, boundary-map for sampled circle maps.  Output is
machine-readable JSON or CSV, all of it rendered by hypsurf.text: every
float is exactly format(x, ".17g"), and a sample's CSV or JSON is
rendered block by block from its arrays.  Identical flags give
byte-identical output.  Only limit-set and
boundary-map take --format; the other subcommands print JSON.  A flag
that a subcommand would ignore (--m or --tol without --check-identity,
--format with --check-identity but no -o, --delta or --base without
--mode orbit, --separation with a group other than schottky) is rejected
as invalid input.

Exit codes: 0 success, 1 stdout closed by its reader (quietly), 2 invalid
input (an automorphism that does not act on the group included, a plan
of more than MAX_PANTS pants), 3 numeric failure (order violations, too
many non-hyperbolic classes, entries too large to normalize); errors are
a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Optional

from hypsurf.boundary import (
    DEFAULT_IDENTITY_TOL,
    DEFAULT_SEARCH_DEPTH,
    CircleMapSample,
    FreeAutomorphism,
    induced_boundary_sample,
    is_boundary_identity,
)
from hypsurf.disk import DiskPoint
from hypsurf.errors import HypsurfError, InvalidInput, NumericFailure
from hypsurf.groups import (
    DEFAULT_DELTA,
    GroupRep,
    SampleMode,
    cusped_torus_group,
    limit_sample,
    octagon_group,
    schottky_rank2,
)
from hypsurf.pants import CuffLengths, build_pants, plan_decomposition, realize
from hypsurf.signature import (
    Signature,
    chi_to_json,
    description_from_json,
    description_to_json,
    double,
    doubling_report,
    euler_characteristic,
    is_standard,
    thirteen_list,
)
from hypsurf.text import circle_map_json, dump_json, endpoint_json, plan_json

DEFAULT_SEPARATION = 4.0
_SEPARATION_HELP = f"schottky only: translation length (default {DEFAULT_SEPARATION})"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", "-o", default=None, dest="output_path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    `main` call in the process; importing this module builds none.
    `parse_args` keeps no state between calls."""
    p = argparse.ArgumentParser(prog="hypsurf", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = p.add_subparsers(dest="subcommand", required=True)

    for name in ("chi", "classify", "double"):
        sp = subs.add_parser(name)
        sp.add_argument("description", help="path to a surface description JSON file")
        if name == "double":
            sp.add_argument("--report", action="store_true",
                            help="include the chi bookkeeping of the doubling")
        _add_common(sp)

    sp = subs.add_parser("thirteen")
    _add_common(sp)

    sp = subs.add_parser("pants")
    sp.add_argument("--lengths", required=True,
                    help="three comma-separated cuff lengths, 0 for a cusp")
    _add_common(sp)

    sp = subs.add_parser("plan")
    sp.add_argument("--sig", required=True, help="signature as g,c,b,a")
    sp.add_argument("--lengths", default="",
                    help="comma-separated boundary lengths, one per compact boundary circle")
    _add_common(sp)

    sp = subs.add_parser("limit-set")
    sp.add_argument("--group", required=True,
                    choices=("octagon", "schottky", "cusped-torus"))
    sp.add_argument("--n", type=int, required=True, dest="max_word_length")
    sp.add_argument("--mode", choices=("orbit", "axes"), default="axes")
    sp.add_argument("--delta", type=float,
                    help=f"orbit mode: keep |z| > 1 - delta (default {DEFAULT_DELTA})")
    sp.add_argument("--separation", type=float, help=_SEPARATION_HELP)
    sp.add_argument("--base", help="orbit mode: basepoint as re,im (default 0,0)")
    sp.add_argument("--format", choices=("json", "csv"), default="csv", dest="output_format")
    _add_common(sp)

    sp = subs.add_parser("boundary-map")
    sp.add_argument("--group", required=True,
                    choices=("octagon", "schottky", "cusped-torus"))
    sp.add_argument("--aut", required=True,
                    help='automorphism images like "A=AB,B=B" (lowercase = inverse)')
    sp.add_argument("--n", type=int, required=True, dest="max_word_length")
    sp.add_argument("--check-identity", action="store_true")
    sp.add_argument("--m", type=int,
                    help=f"inner-correction search depth (default {DEFAULT_SEARCH_DEPTH})")
    sp.add_argument("--tol", type=float,
                    help=f"identity tolerance, radians (default {DEFAULT_IDENTITY_TOL})")
    sp.add_argument("--separation", type=float, help=_SEPARATION_HELP)
    sp.add_argument("--format", choices=("json", "csv"), dest="output_format")
    _add_common(sp)
    return p


def _emit_text(chunks: Iterable[str], path: Optional[str]) -> None:
    """Write the chunks and a final newline to the file at path, or to
    stdout.  Chunks are written as they come: a sample's text arrives in
    blocks of rows (`text`), so its whole text is never held at once."""
    f = sys.stdout if path is None else open(path, "w", encoding="utf-8")
    try:
        for chunk in chunks:
            f.write(chunk)
        f.write("\n")
    finally:
        if path is not None:
            f.close()


def _emit(text: str, path: Optional[str]) -> None:
    _emit_text((text,), path)


def _emit_sample(sample, output_format: str, path: Optional[str]) -> None:
    """Write a sample's CSV or JSON, rendered from its arrays."""
    if output_format == "csv":
        chunks = sample.to_csv_rows()
    elif isinstance(sample, CircleMapSample):
        chunks = circle_map_json(sample.theta_in, sample.theta_out, sample.letters,
                                 sample.skipped)
    else:
        chunks = endpoint_json(sample.mode.value, sample.angles, sample.letters)
    _emit_text(chunks, path)


def _load_description(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as e:
        raise InvalidInput(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{path} is not valid JSON: {e}")
    return description_from_json(obj)


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise InvalidInput(f"bad number list {text!r}: {e}")


def _reject_given(args, flags: tuple[str, ...], scope: str) -> None:
    """Raise InvalidInput if any of these flags (named as their argparse
    dest, which parses to None when the flag is absent) was given."""
    given = [f"--{name}" for name in flags if getattr(args, name) is not None]
    if given:
        raise InvalidInput(f"{' and '.join(given)}: only used {scope}")


def _group_from_args(args) -> GroupRep:
    if args.group == "schottky":
        return schottky_rank2(DEFAULT_SEPARATION if args.separation is None else args.separation)
    _reject_given(args, ("separation",), "to --group schottky")
    return octagon_group() if args.group == "octagon" else cusped_torus_group()


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.subcommand

    if cmd == "chi":
        d = _load_description(args.description)
        _emit(dump_json({"chi": chi_to_json(euler_characteristic(d))}), args.output_path)
    elif cmd == "classify":
        d = _load_description(args.description)
        _emit(dump_json(is_standard(d).to_json()), args.output_path)
    elif cmd == "double":
        d = _load_description(args.description)
        if args.report:
            rep = doubling_report(d)
            payload = {
                "doubled": None if rep.doubled is None else description_to_json(rep.doubled),
                "r": rep.r,
                "chi_two_chi_minus_r": rep.chi_minus_r,
                "chi_two_chi_plus_r": rep.chi_plus_r,
                "chi_direct": rep.chi_direct,
            }
        else:
            payload = description_to_json(double(d))
        _emit(dump_json(payload), args.output_path)
    elif cmd == "thirteen":
        payload = [
            {"name": name, "description": description_to_json(d)}
            for name, d in thirteen_list()
        ]
        _emit(dump_json(payload), args.output_path)
    elif cmd == "pants":
        lengths = _parse_floats(args.lengths)
        if len(lengths) != 3:
            raise InvalidInput("--lengths needs exactly three values")
        _emit(dump_json(build_pants(CuffLengths(*lengths)).to_json()), args.output_path)
    elif cmd == "plan":
        sig = _parse_floats(args.sig)
        # float.is_integer is False for inf and nan too
        if len(sig) != 4 or not all(x.is_integer() for x in sig):
            raise InvalidInput("--sig needs four integers g,c,b,a")
        s = Signature(*(int(x) for x in sig))
        plan = plan_decomposition(s, _parse_floats(args.lengths))
        _emit(plan_json(plan, realize(plan)), args.output_path)
    elif cmd == "limit-set":
        if args.mode == "orbit":
            mode = SampleMode.ORBIT_PROJECTION
        else:
            _reject_given(args, ("delta", "base"), "with --mode orbit")
            mode = SampleMode.AXIS_ENDPOINTS
        rep = _group_from_args(args)
        base = (0.0, 0.0) if args.base is None else _parse_floats(args.base)
        if len(base) != 2:
            raise InvalidInput("--base needs exactly two values re,im")
        delta = DEFAULT_DELTA if args.delta is None else args.delta
        sample = limit_sample(rep, DiskPoint(complex(*base)),
                              args.max_word_length, mode, delta=delta)
        _emit_sample(sample, args.output_format, args.output_path)
    elif cmd == "boundary-map":
        if not args.check_identity:
            _reject_given(args, ("m", "tol"), "with --check-identity")
        elif args.output_format is not None and args.output_path is None:
            raise InvalidInput("--format: with --check-identity, only used with -o")
        output_format = "csv" if args.output_format is None else args.output_format
        rep = _group_from_args(args)
        phi = FreeAutomorphism.from_spec(args.aut, rank=rep.rank)
        sample = induced_boundary_sample(rep, phi, args.max_word_length)
        if args.check_identity:
            m = DEFAULT_SEARCH_DEPTH if args.m is None else args.m
            tol = DEFAULT_IDENTITY_TOL if args.tol is None else args.tol
            verdict = is_boundary_identity(rep, sample, m=m, tol=tol).to_json()
            verdict["order"] = sample.orientation
            if args.output_path is not None:
                _emit_sample(sample, output_format, args.output_path)
            _emit(dump_json(verdict), None)
        else:
            _emit_sample(sample, output_format, args.output_path)
    else:  # pragma: no cover - argparse enforces the choices
        raise InvalidInput(f"unknown subcommand {cmd!r}")
    return 0


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit goes to os.devnull (`signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HypsurfError as e:
        sys.stderr.write(dump_json({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 3 if isinstance(e, NumericFailure) else 2

