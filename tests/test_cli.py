import errno
import io
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from hypsurf import boundary, cli, groups, jsontext
from hypsurf.errors import InvalidInput, NumericFailure

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import oracles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_desc(tmp_path, obj, name="desc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_classify_torus(tmp_path, capsys):
    path = write_desc(tmp_path, {"kind": "finite", "g": 1, "c": 0, "b": 0, "a": 0})
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "standard": False,
        "reason": "in_thirteen_list",
        "chi": 0,
        "name": "torus",
    }


def test_chi_pants(tmp_path, capsys):
    path = write_desc(tmp_path, {"kind": "finite", "g": 0, "c": 0, "b": 3, "a": 0})
    code, out, _ = run_cli(capsys, "chi", path)
    assert code == 0
    assert json.loads(out) == {"chi": -1}


def test_chi_infinite(tmp_path, capsys):
    path = write_desc(tmp_path, {"kind": "infinite", "inf_chi": True})
    code, out, _ = run_cli(capsys, "chi", path)
    assert code == 0
    assert json.loads(out) == {"chi": "-inf"}


def test_double_strip_with_report(tmp_path, capsys):
    path = write_desc(tmp_path, {"kind": "strip"})
    code, out, _ = run_cli(capsys, "double", path)
    assert code == 0
    assert json.loads(out) == {"kind": "finite", "g": 0, "c": 0, "b": 0, "a": 2}
    code, out, _ = run_cli(capsys, "double", path, "--report")
    rep = json.loads(out)
    assert rep["chi_two_chi_minus_r"] == 0 and rep["chi_two_chi_plus_r"] == 4
    assert rep["chi_direct"] == 0


def test_thirteen_catalog(capsys):
    code, out, _ = run_cli(capsys, "thirteen")
    assert code == 0
    finite = {"kind": "finite"}
    assert json.loads(out) == [
        {"name": "open disk", "description": {**finite, "g": 0, "c": 0, "b": 0, "a": 1}},
        {"name": "closed disk", "description": {**finite, "g": 0, "c": 0, "b": 1, "a": 0}},
        {"name": "open annulus", "description": {**finite, "g": 0, "c": 0, "b": 0, "a": 2}},
        {"name": "half open annulus", "description": {**finite, "g": 0, "c": 0, "b": 1, "a": 1}},
        {"name": "closed annulus", "description": {**finite, "g": 0, "c": 0, "b": 2, "a": 0}},
        {"name": "open Möbius band", "description": {**finite, "g": 0, "c": 1, "b": 0, "a": 1}},
        {"name": "closed Möbius band", "description": {**finite, "g": 0, "c": 1, "b": 1, "a": 0}},
        {"name": "half plane", "description": {"kind": "half_plane"}},
        {"name": "doubly infinite strip", "description": {"kind": "strip"}},
        {"name": "sphere", "description": {**finite, "g": 0, "c": 0, "b": 0, "a": 0}},
        {"name": "projective plane", "description": {**finite, "g": 0, "c": 1, "b": 0, "a": 0}},
        {"name": "torus", "description": {**finite, "g": 1, "c": 0, "b": 0, "a": 0}},
        {"name": "Klein bottle", "description": {**finite, "g": 0, "c": 2, "b": 0, "a": 0}},
    ]


def test_pants_json(capsys):
    code, out, _ = run_cli(capsys, "pants", "--lengths", "2,2,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["seams"]["d12"] == pytest.approx(1.7049128323580138)
    assert obj["area"] == pytest.approx(2 * math.pi)
    code, out, _ = run_cli(capsys, "pants", "--lengths", "0,0,0")
    obj = json.loads(out)
    assert obj["seams"] == {"d12": "inf", "d23": "inf", "d31": "inf"}


def test_plan_genus_two(capsys):
    code, out, _ = run_cli(capsys, "plan", "--sig", "2,0,0,0")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["pants"]) == 2 and len(obj["gluings"]) == 3
    assert obj["summary"]["total_area"] == pytest.approx(4 * math.pi)


@pytest.mark.parametrize("sig", ["50002,0,0,0", "1e300,0,0,0"])
def test_plans_past_max_pants_are_refused_before_any_is_built(sig, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "plan", "--sig", sig)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_limit_set_csv_and_determinism(capsys):
    args = ("limit-set", "--group", "schottky", "--n", "4", "--mode", "axes")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte identical
    lines = out1.strip().split("\n")
    assert lines[0] == "theta,word"
    assert len(lines) > 100


def test_limit_set_json_mode(capsys):
    code, out, _ = run_cli(
        capsys, "limit-set", "--group", "octagon", "--n", "2", "--mode", "orbit",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "orbit"
    assert len(obj["angles"]) == len(obj["words"])


def test_limit_set_output_file(tmp_path, capsys):
    target = tmp_path / "sample.csv"
    code, out, _ = run_cli(
        capsys, "limit-set", "--group", "schottky", "--n", "3", "-o", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("theta,word")


#: sample commands of both kinds and formats, each given an -o path
UNWRITABLE_OUTPUT_ARGVS = [
    "limit-set --group octagon --n 2",
    "limit-set --group octagon --n 2 --format json",
    "boundary-map --group cusped-torus --aut A=AB,B=B --n 3",
    "boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --format json",
    "boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --check-identity",
    "boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --check-identity --format json",
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUT_ARGVS)
def test_an_output_path_that_cannot_be_opened_exits_2(argv, tmp_path, capsys):
    # the open fails once the sample is built: one JSON line on stderr,
    # nothing on stdout, and so no verdict with --check-identity
    path = tmp_path / "missing" / "sample.out"
    code, out, err = run_cli(capsys, *argv.split(), "-o", str(path))
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "InvalidInput"
    assert error["message"].startswith(f"cannot write {path}: ")
    assert not path.parent.exists()


def test_boundary_map_sample(capsys):
    code, out, _ = run_cli(
        capsys, "boundary-map", "--group", "cusped-torus", "--aut", "A=A,B=B",
        "--n", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta_in,theta_out,word"
    for line in lines[1:]:
        tin, tout, _ = line.split(",")
        assert tin == tout


def test_boundary_map_check_identity(tmp_path, capsys):
    target = tmp_path / "map.csv"
    code, out, _ = run_cli(
        capsys, "boundary-map", "--group", "cusped-torus", "--aut", "A=AB,B=B",
        "--n", "5", "--check-identity", "--m", "3", "--tol", "0.01",
        "-o", str(target),
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["identity"] is False
    assert verdict["residual"] > 0.05
    assert verdict["order"] == "preserving"
    assert target.read_text().startswith("theta_in,theta_out,word")


def test_boundary_map_check_identity_past_evaluate_range(capsys):
    # length-3 products of this group exceed evaluate()'s entry bound; the
    # inner search reads them from the scale-free word table instead
    code, out, err = run_cli(
        capsys, "boundary-map", "--group", "schottky", "--separation", "10",
        "--aut", "A=AB,B=B", "--n", "3", "--check-identity", "--m", "3",
    )
    assert code == 0 and err == ""
    verdict = json.loads(out)
    assert verdict["sample_size"] > 0 and verdict["residual"] >= 0.0


# the four --check-identity runs of the boundary-verdict benchmark workload
BOUNDARY_VERDICT_ARGVS = (
    ("--group", "cusped-torus", "--aut", "A=AB,B=B", "--n", "9"),
    ("--group", "cusped-torus", "--aut", "A=A,B=B", "--n", "8"),
    ("--group", "octagon", "--aut", "A=A,B=ABa,C=ACa,D=ADa", "--n", "5"),
    ("--group", "schottky", "--aut", "A=AB,B=B", "--n", "8", "--separation", "2.0"),
)


def test_boundary_verdicts_match_the_reference_class_table_and_substitution(
        tmp_path, capsys, monkeypatch):
    def verdicts():
        record = []
        for argv in BOUNDARY_VERDICT_ARGVS:
            target = tmp_path / "map.csv"
            code, out, err = run_cli(capsys, "boundary-map", *argv, "--check-identity",
                                     "-o", str(target))
            record.append((code, out, err, target.read_bytes()))
        return record

    fast = verdicts()
    calls = []

    def traced(reference):
        def call(*args, **kwargs):
            calls.append(reference.__name__)
            return reference(*args, **kwargs)
        return call

    # induced_boundary_sample reads both through hypsurf.boundary's globals.
    # The reference table keeps the proper powers, which have their roots'
    # angles and come after them: the net drops each one, and only the
    # parabolic ones leave a trace, in the count of skipped classes
    monkeypatch.setattr(boundary, "conjugacy_class_words",
                        traced(oracles.conjugacy_class_words))
    monkeypatch.setattr(boundary, "substitute_rows", traced(oracles.substitute_rows))
    reference = verdicts()
    assert calls == ["conjugacy_class_words", "substitute_rows"] * 4
    assert [r[0] for r in fast] == [0] * 4
    assert [json.loads(r[1])["identity"] for r in fast] == [False, True, True, False]
    assert all(r[3].startswith(b"theta_in,theta_out,word\n") for r in fast)
    skipped = []
    for got, want in zip(fast, reference):
        got_verdict, want_verdict = json.loads(got[1]), json.loads(want[1])
        skipped.append((got_verdict.pop("skipped"), want_verdict.pop("skipped")))
        assert got_verdict == want_verdict
        assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
    assert skipped == [(1, 2), (1, 2), (0, 0), (0, 0)]


@pytest.mark.parametrize("argv, pinned", zip(BOUNDARY_VERDICT_ARGVS, [
    (False, "1", ["1"], 1751, 1, "preserving"),
    (True, "1", ["1"], 659, 1, "preserving"),
    (True, "a", ["a"], 2045, 0, "preserving"),
    (False, "1", ["1"], 660, 0, "preserving"),
]), ids=["torus-twist-n9", "torus-identity-n8", "octagon-inner-a-n5", "schottky2-twist-n8"])
def test_boundary_verdict_fields(argv, pinned, capsys):
    code, out, err = run_cli(capsys, "boundary-map", *argv, "--check-identity")
    assert (code, err) == (0, "")
    v = json.loads(out)
    fields = ("identity", "best_inner", "near_minimizers", "sample_size", "skipped", "order")
    assert tuple(v[k] for k in fields) == pinned
    if v["identity"]:
        assert v["residual"] <= 1e-13
    else:
        assert v["residual"] >= 0.2


@pytest.mark.parametrize("separation, n, residual, sample_size", [
    ("12", "4", 1.2288273703946116e-05, 4),
    ("12", "8", 1.2288273703946116e-05, 4),
    ("37", "10", 3.4132190502976263e-16, 2),
])
def test_a_twist_is_no_identity_within_tol_of_a_few_points(separation, n, residual,
                                                           sample_size):
    # the limit set lies within tol of a few points, so the residual passes;
    # A -> AB moves H_1, and no inner automorphism does.  A subprocess,
    # because the search at separation 37 divides 0 by 0 in the residual
    # of some u, and the test suite makes that RuntimeWarning an error
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hypsurf", "boundary-map", "--group",
                           "schottky", "--separation", separation, "--aut", "A=AB,B=B",
                           "--n", n, "--check-identity"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    verdict = json.loads(proc.stdout)
    assert (verdict["identity"], verdict["residual"], verdict["sample_size"]) == (
        False, residual, sample_size)
    assert residual < boundary.DEFAULT_IDENTITY_TOL


def test_exit_code_invalid_input(tmp_path, capsys):
    code, out, err = run_cli(capsys, "chi", str(tmp_path / "missing.json"))
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "InvalidInput"
    code, _, err = run_cli(capsys, "pants", "--lengths=-1,1,1")
    assert code == 2
    assert json.loads(err)["error"] == "NegativeLength"
    code, _, err = run_cli(capsys, "plan", "--sig", "0,0,2,0", "--lengths", "1,1")
    assert code == 2
    assert json.loads(err)["error"] == "NotHyperbolizable"
    for n in ("8", "9"):  # n = 7 is the longest octagon table within the budget
        code, _, err = run_cli(capsys, "limit-set", "--group", "octagon", "--n", n)
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceeded"
    code, _, err = run_cli(
        capsys, "boundary-map", "--group", "schottky", "--aut", "A=AA,B=B", "--n", "3"
    )
    assert code == 2
    assert json.loads(err)["error"] == "NotAnAutomorphism"


def test_exit_code_numeric_failure(capsys, monkeypatch):
    def boom(_):
        raise NumericFailure("synthetic failure")

    monkeypatch.setattr(cli, "build_pants", boom)
    code, _, err = run_cli(capsys, "pants", "--lengths", "1,1,1")
    assert code == 3
    obj = json.loads(err)
    assert obj["error"] == "NumericFailure"
    assert err.count("\n") == 1  # one-line error


TORUS_TWIST = ("boundary-map", "--group", "cusped-torus", "--aut", "A=AB,B=B", "--n", "3")


@pytest.mark.parametrize("argv", [
    (*TORUS_TWIST, "--m", "3"),
    (*TORUS_TWIST, "--tol", "0.01"),
    ("limit-set", "--group", "octagon", "--n", "2", "--delta", "0.1"),
    ("limit-set", "--group", "octagon", "--n", "2", "--mode", "axes", "--base", "0,0"),
    ("limit-set", "--group", "octagon", "--n", "2", "--separation", "4"),
    ("limit-set", "--group", "cusped-torus", "--n", "2", "--mode", "orbit", "--separation", "4"),
    (*TORUS_TWIST, "--check-identity", "--separation", "4"),
    (*TORUS_TWIST, "--check-identity", "--format", "json"),
])
def test_flags_the_subcommand_would_ignore_are_invalid_input(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("aut", ["A=AB", "A=BA", "A=B,B=A"])
def test_automorphisms_that_do_not_act_on_the_octagon_group_are_invalid_input(aut, capsys):
    # phi(r) is not conjugate to the relator r or to r^-1: A=AB once gave
    # a verdict and A=BA an OrderViolation
    code, out, err = run_cli(capsys, "boundary-map", "--group", "octagon", "--aut", aut,
                             "--n", "4", "--check-identity")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "NotAnAutomorphism"


@pytest.mark.parametrize("group", ["schottky", "cusped-torus"])
@pytest.mark.parametrize("aut, error", [
    ("A=AA,B=B", "NotAnAutomorphism"),
    ("A=AB,B=BA", "NotAnAutomorphism"),
    ("A=AC,B=B", "IndexOutOfRange"),  # C lies outside the rank
])
def test_endomorphisms_of_the_free_group_that_are_not_automorphisms_are_invalid_input(
        group, aut, error, capsys):
    # the commutator ABab must map to a conjugate of itself or its inverse
    code, out, err = run_cli(capsys, "boundary-map", "--group", group, "--aut", aut,
                             "--n", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [
    ("plan", "--sig", "inf,0,0,0"),  # once a bare OverflowError
    ("plan", "--sig", "nan,0,0,0"),  # once a bare ValueError
    ("plan", "--sig", "0,0,-inf,0"),
    ("limit-set", "--group", "octagon", "--n", "2", "--mode", "orbit", "--base", "nan,0"),
    (*TORUS_TWIST, "--check-identity", "--tol", "nan"),  # once "identity":false
    (*TORUS_TWIST, "--check-identity", "--tol", "-0.1"),
    (*TORUS_TWIST, "--check-identity", "--tol", "inf"),  # once passed a Dehn twist
    # a residual is at most pi: these once passed the Dehn twist too
    (*TORUS_TWIST, "--check-identity", "--tol", "3.2"),
    (*TORUS_TWIST, "--check-identity", "--tol", "3.141592653589793"),
    # the next four once exited as NegativeLength or NonpositiveLength
    ("pants", "--lengths", "nan,1,1"),
    ("pants", "--lengths", "inf,1,1"),
    ("plan", "--sig", "0,0,3,0", "--lengths", "inf,1,1"),
    ("limit-set", "--group", "schottky", "--separation", "inf", "--n", "2"),
])
def test_non_finite_and_negative_numbers_are_invalid_input(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("argv, literal", [
    # each was once read as 0: a cusp with seams inf, genus 0, "length 0.0"
    (("pants", "--lengths", "2e-324,1,1"), "2e-324"),
    (("plan", "--sig", "1e-400,0,0,3"), "1e-400"),
    (("plan", "--sig", "0,0,3,0", "--lengths", "1e-400,1,1"), "1e-400"),
    (("pants", "--lengths", "1,-1.5E-999,1"), "-1.5E-999"),
    (("limit-set", "--group", "octagon", "--n", "2", "--mode", "orbit", "--base", "0,1e-400"),
     "1e-400"),
])
def test_a_number_that_underflows_to_zero_is_invalid_input(argv, literal, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "InvalidInput",
        "message": f"{literal!r} is too small for a double: it would be read as 0"}


@pytest.mark.parametrize("lengths", ["0,1,1", "-0,1,1", "0e-400,1,1", "0.000e-99999,1,1"])
def test_a_zero_literal_stays_a_cusp(lengths, capsys):
    code, out, err = run_cli(capsys, "pants", f"--lengths={lengths}")
    assert (code, err) == (0, "")
    assert json.loads(out)["cuffs"] == [0, 1, 1]
    assert json.loads(out)["seams"]["d12"] == "inf"


@pytest.mark.parametrize("argv", [
    ("limit-set", "--group", "schottky", "--n", "2"),
    ("boundary-map", "--group", "schottky", "--aut", "A=AB,B=B", "--n", "2"),
])
@pytest.mark.parametrize("separation", ["1000", "1500"])
def test_an_overflowing_separation_is_a_numeric_failure(argv, separation, capsys):
    # past about 711 the squares of the entries overflow a float, past about
    # 1420.9 the entries themselves: each once exited 1 with a traceback
    code, out, err = run_cli(capsys, *argv, "--separation", separation)
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "NumericFailure"


@pytest.mark.parametrize("description, key", [
    ({"kind": "strip", "g": 3}, "g"),  # once classified as the strip
    ({"kind": "finite", "g": 2, "c": 0, "b": 0, "a": 0, "extra": 1}, "extra"),
])
def test_description_keys_the_kind_does_not_use_are_invalid_input(
        description, key, tmp_path, capsys):
    code, out, err = run_cli(capsys, "classify", write_desc(tmp_path, description))
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    obj = json.loads(err)
    assert obj["error"] == "InvalidInput" and obj["message"].endswith(f"has no field {key}")


def test_assignment_beyond_the_rank_is_index_out_of_range(capsys):
    # C=A was once dropped, and the identity map's sample printed
    code, out, err = run_cli(capsys, "boundary-map", "--group", "cusped-torus",
                             "--aut", "C=A", "--n", "2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "IndexOutOfRange"


@pytest.mark.parametrize("bare, explicit", [
    (("limit-set", "--group", "octagon", "--n", "3", "--mode", "orbit"),
     ("--delta", "0.2", "--base", "0,0")),
    (("limit-set", "--group", "schottky", "--n", "4"), ("--separation", "4.0")),
    ((*TORUS_TWIST, "--check-identity"), ("--m", "3", "--tol", "0.001")),
    (TORUS_TWIST, ("--format", "csv")),
])
def test_flags_that_apply_default_to_their_documented_values(bare, explicit, capsys):
    assert cli.DEFAULT_SEPARATION == 4.0
    assert cli.DEFAULT_DELTA == 0.2
    assert (cli.DEFAULT_SEARCH_DEPTH, cli.DEFAULT_IDENTITY_TOL) == (3, 1e-3)
    first = run_cli(capsys, *bare)
    assert first[0] == 0 and first[2] == ""
    assert run_cli(capsys, *bare, *explicit) == first


@pytest.mark.parametrize("argv", [
    ("limit-set", "--group", "schottky", "--mode", "orbit", "--n", "6"),
    ("boundary-map", "--group", "schottky", "--aut", "A=AB,B=B", "--n", "6"),
])
def test_angles_print_below_two_pi(argv, capsys):
    # A's fixed point sits at angle 0, computed as a tiny negative angle
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][0] == "0" and rows[0][-1] == "A"
    assert max(float(x) for row in rows for x in row[:-1]) < 2 * math.pi


def test_saturated_schottky_boundary_map_keeps_nine_rows(capsys):
    # a sample whose dedup drops long runs of colliding entries
    code, out, err = run_cli(capsys, "boundary-map", "--group", "schottky", "--separation",
                             "10", "--aut", "A=AB,B=B", "--n", "11")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 1 + 9


def test_the_class_table_budgets_the_rows_it_generates(capsys):
    # the pruned class table generates 1,213,082 rows at n = 14, within the
    # budget, although word_count(2, 14) is past it; at n = 16 it
    # generates 9,384,014 rows and is refused
    code, out, err = run_cli(capsys, "boundary-map", "--group", "cusped-torus", "--aut",
                             "A=AB,B=B", "--n", "14", "--check-identity")
    assert (code, err) == (0, "")
    verdict = json.loads(out)
    assert (verdict["identity"], verdict["sample_size"]) == (False, 266_742)
    code, out, err = run_cli(capsys, "boundary-map", "--group", "cusped-torus", "--aut",
                             "A=AB,B=B", "--n", "16", "--check-identity")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "BudgetExceeded",
                               "message": "9384014 words exceed the budget of 5000000"}


def test_inner_search_table_is_budgeted(capsys):
    code, out, err = run_cli(capsys, *TORUS_TWIST, "--check-identity", "--m", "14")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("argv", [
    ("chi", "desc.json", "--format", "csv"),
    ("plan", "--sig", "2,0,0,0", "--format", "json"),
    ("limit-set", "--group", "octagon", "--n", "2", "--seed", "7"),
    ("thirteen", "--echo-config"),
])
def test_flags_that_do_nothing_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("base", ["0.5", "1,2,3", ""])
def test_limit_set_base_needs_re_and_im(base, capsys):
    code, out, err = run_cli(
        capsys, "limit-set", "--group", "octagon", "--n", "2", "--mode", "orbit",
        "--base", base,
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"


def test_float_formatting_17_significant_digits():
    assert jsontext.format_float(2 * math.pi) == "6.2831853071795862"
    assert jsontext.dump_json({"x": 0.1}) == '{"x":0.10000000000000001}'
    assert jsontext.dump_json([1, True, None, "s"]) == '[1,true,null,"s"]'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dump_json_rejects_non_finite_in_long_float_list(bad):
    for where in (0, 500, 999):
        values = [0.25] * 1000
        values[where] = bad
        with pytest.raises(InvalidInput):
            jsontext.dump_json(values)
        with pytest.raises(InvalidInput):
            jsontext.dump_json({"angles": tuple(values)})
        with pytest.raises(InvalidInput):
            jsontext.dump_json({f"p{i}.c0": v for i, v in enumerate(values)})


def test_dump_json_float_list_matches_per_element_formatting():
    values = [0.1, -2.5e-300, 1e300, 5e-324, -0.0, 2 * math.pi]
    expected = "[" + ",".join(jsontext.format_float(x) for x in values) + "]"
    assert jsontext.dump_json(values) == expected
    assert jsontext.dump_json(tuple(values)) == expected


def test_dump_json_bools_and_ints_stay_off_the_float_path():
    assert jsontext.dump_json([True, 1.0]) == "[true,1]"
    assert jsontext.dump_json([1, 2.0]) == "[1,2]"
    assert jsontext.dump_json([False]) == "[false]"
    assert jsontext.dump_json([3]) == "[3]"


def test_dump_json_string_list_escapes_like_json_dumps():
    values = ['plain', 'quote"', "back\\slash", "new\nline", "tab\t", "\u00e9", "\u2028", "\x00"]
    expected = "[" + ",".join(json.dumps(v) for v in values) + "]"
    assert jsontext.dump_json(values) == expected
    assert json.loads(jsontext.dump_json(values)) == values
    keys = values + ["", 7, -1, 2.5, True, None]
    expected_keys = [json.dumps(str(k)) for k in keys]
    mixed = {k: i for i, k in enumerate(keys)}
    assert jsontext.dump_json(mixed) == (
        "{" + ",".join(f"{k}:{i}" for i, k in enumerate(expected_keys)) + "}"
    )
    floats = {k: 0.5 * i for i, k in enumerate(keys)}
    assert jsontext.dump_json(floats) == (
        "{" + ",".join(f"{k}:{jsontext.format_float(0.5 * i)}" for i, k in enumerate(expected_keys)) + "}"
    )
    # an "n" in a key is not a non-finite value
    assert jsontext.dump_json({"nan": 1.0, "inf": 0.25}) == '{"nan":1,"inf":0.25}'


def test_repeated_in_process_calls_stay_independent(tmp_path, capsys):
    desc = write_desc(tmp_path, {"kind": "finite", "g": 1, "c": 1, "b": 2, "a": 0})
    target = tmp_path / "plan.json"
    sequence = [
        ("plan", "--sig", "1,0,2,1", "--lengths", "1.5,2.5", "-o", str(target)),
        ("chi", desc),
        ("classify", desc),
        ("limit-set", "--group", "octagon", "--n", "2", "--seed", "7"),
        ("plan", "--sig", "0,0,2,0", "--lengths", "1,1"),
        ("plan", "--sig", "2,0,0,0"),
    ]

    def one_pass():
        record = []
        for argv in sequence:
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = ("SystemExit", e.code)
            out, err = capsys.readouterr()
            record.append((code, out, err))
        record.append(target.read_text())
        target.unlink()
        return record

    cli.build_parser.cache_clear()  # the first pass builds the parser, the second reuses it
    first = one_pass()
    parser = cli.build_parser()
    second = one_pass()
    assert cli.build_parser() is parser
    assert second == first
    assert [r[0] for r in first[:-1]] == [0, 0, 0, ("SystemExit", 2), 2, 0]
    assert "unrecognized arguments: --seed 7" in first[3][2]
    assert json.loads(first[4][2])["error"] == "NotHyperbolizable"
    assert json.loads(first[-1])["summary"]["pants_count"] == 3


def test_import_builds_no_parser_and_main_builds_one():
    src = Path(cli.__file__).resolve().parent.parent
    probe = textwrap.dedent("""
        import argparse, json, os
        count = 0
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            global count
            count += 1
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import hypsurf.cli as cli
        after_import = count
        cli.main(["thirteen", "-o", os.devnull])
        cli.main(["thirteen", "-o", os.devnull])
        after_two_calls = count
        cli.build_parser.__wrapped__()
        print(json.dumps([after_import, after_two_calls, count - after_two_calls]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, after_two_calls, one_build = json.loads(proc.stdout)
    assert after_import == 0
    assert one_build > 1  # the top-level parser and its subcommand parsers
    assert after_two_calls == one_build


def test_cli_defaults_are_the_library_defaults():
    # the help text states them without importing the sampler
    assert cli.DEFAULT_DELTA == groups.DEFAULT_DELTA
    assert cli.DEFAULT_SEARCH_DEPTH == boundary.DEFAULT_SEARCH_DEPTH
    assert cli.DEFAULT_IDENTITY_TOL == boundary.DEFAULT_IDENTITY_TOL


#: the signature and pants subcommands, which need no numpy
BOOKKEEPING_ARGVS = [
    ["chi", "desc.json"],
    ["classify", "desc.json"],
    ["double", "desc.json", "--report"],
    ["thirteen"],
    ["pants", "--lengths", "2,2,0"],
    ["plan", "--sig", "1,1,1,1", "--lengths", "2"],
]


def test_only_the_sampling_subcommands_import_numpy(tmp_path):
    (tmp_path / "desc.json").write_text('{"kind":"finite","g":1,"c":0,"b":1,"a":0}')
    probe = textwrap.dedent("""
        import json, os, sys
        before = "numpy" in sys.modules
        import hypsurf
        loaded = {"import hypsurf": "numpy" in sys.modules}
        from hypsurf import cli
        for argv in json.loads(sys.argv[1]):
            code = cli.main([*argv, "-o", os.devnull])
            loaded[" ".join(argv)] = "numpy" in sys.modules if code == 0 else code
        code = cli.main(["limit-set", "--group", "octagon", "--n", "2", "-o", os.devnull])
        sampled = [code, "numpy" in sys.modules, "hypsurf.boundary" in sys.modules]
        print(json.dumps([before, loaded, sampled]))
    """)
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(BOOKKEEPING_ARGVS)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, loaded, sampled = json.loads(proc.stdout)
    if before:
        pytest.skip("this interpreter loads numpy before hypsurf")
    assert loaded == {"import hypsurf": False, **{" ".join(a): False for a in BOOKKEEPING_ARGVS}}
    # limit-set loads numpy, and with it not the boundary-map sampler
    assert sampled == [0, True, False]


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "hypsurf", "thirteen"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, err = run_cli(capsys, "thirteen")
    assert (code, err) == (0, "")
    assert proc.stdout == out


def test_a_closed_stdout_exits_1_quietly():
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    # the CSV is far larger than a pipe buffer, so the writer is still going
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypsurf", "limit-set", "--group", "octagon", "--n", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"theta,word\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.parametrize("argv, to_full, message", [
    ("thirteen", True, "cannot write stdout: "),
    # far larger than stdout's buffer: a write fails before the flush
    ("limit-set --group octagon --n 5", True, "cannot write stdout: "),
    ("limit-set --group octagon --n 3 -o /dev/full", False, "cannot write /dev/full: "),
    ("boundary-map --group cusped-torus --aut A=AB,B=B --n 3 --check-identity -o /dev/full",
     False, "cannot write /dev/full: "),
    ("chi deep.json", False, "deep.json is nested too deeply to read: "),
])
def test_a_failed_write_or_an_over_deep_file_exits_2_with_one_json_line(
        argv, to_full, message, tmp_path):
    # nothing but the error is printed, at exit included: the flush at
    # exit of a stdout whose write failed would print a traceback
    full = to_full or "/dev/full" in argv
    if full and not os.path.exists("/dev/full"):
        pytest.skip("this host has no /dev/full")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with open("/dev/full" if to_full else os.devnull, "w") as stdout:
        proc = subprocess.run([sys.executable, "-m", "hypsurf", *argv.split()], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
                              timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "InvalidInput"
    assert error["message"].startswith(message)
    if full:
        assert f"[Errno {errno.ENOSPC}]" in error["message"]


def readme_cli_lines() -> list[str]:
    """The `hypsurf ...` lines of README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("hypsurf ")]


def test_readme_cli_lines_run(tmp_path, capsys, monkeypatch):
    lines = readme_cli_lines()
    assert {line.split()[1] for line in lines} == {
        "classify", "chi", "double", "thirteen", "pants", "plan", "limit-set", "boundary-map"}
    monkeypatch.chdir(tmp_path)
    write_desc(tmp_path, {"kind": "finite", "g": 1, "c": 0, "b": 1, "a": 0})
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line


#: runs whose angles are compared across numpy's SIMD dispatch levels
CROSS_DISPATCH_ARGVS = (
    "limit-set --group octagon --n 5",
    # the longest octagon table: README's bound is reached here
    "limit-set --group octagon --n 7",
    "limit-set --group octagon --n 4 --mode orbit",
    "boundary-map --group cusped-torus --aut A=AB,B=B --n 12",
    # its images have conjugators, so the walk of `attracting_angles` runs
    "boundary-map --group octagon --aut A=A,B=ABa,C=ACa,D=ADa --n 4",
)


@pytest.mark.parametrize("level, bound", [("X86_V4", 1e-14), ("X86_V3", 1.4e-14)])
def test_angles_agree_across_simd_dispatch_levels(level, bound):
    # bytes hold for one numpy build at one dispatch level; with its
    # AVX-512 loops off, the row counts hold and every angle stays within
    # 1e-14, and within 1.4e-14 with its AVX2 loops off too (README).
    # Octagon n=5's axes rows keep their words with the AVX-512 loops off:
    # each row's angle is its own word's attracting fixed point, so w and
    # its inverse never tie.  With the AVX2 loops off too, 10 of its words
    # are another word of a tie: a power and its root, or two words of one
    # group element
    if level not in __cpu_dispatch__ or not __cpu_features__.get(level):
        pytest.skip(f"numpy dispatches no {level} loops on this host")
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    off = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(
        f for f in __cpu_dispatch__ if f in ("X86_V4", level) or f.startswith("AVX512")))

    def run(argv, env):
        proc = subprocess.run([sys.executable, "-m", "hypsurf", *argv.split()],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        columns = proc.stdout.partition("\n")[0].count(",")
        return proc.stdout, np.loadtxt(io.StringIO(proc.stdout), delimiter=",", skiprows=1,
                                       usecols=range(columns), ndmin=2)

    probe = ("import numpy._core._multiarray_umath as m; "
             f"print(m.__cpu_features__['{level}'])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=off, timeout=120)
    assert proc.stdout.split() == ["False"], proc.stderr
    for argv in CROSS_DISPATCH_ARGVS:
        (text, default), (text_without, without) = run(argv, env), run(argv, off)
        assert default.shape == without.shape, argv
        assert np.abs(default - without).max() <= bound, argv
        if argv == "limit-set --group octagon --n 5" and level == "X86_V4":
            assert ([line.rsplit(",", 1)[1] for line in text.splitlines()]
                    == [line.rsplit(",", 1)[1] for line in text_without.splitlines()])
