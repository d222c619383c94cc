"""The output checks reject corrupted artifacts.

Each test makes a small real artifact with the CLI, shows that it
passes, corrupts one thing, and shows that the check raises.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json

import pytest

import calibrate
import checks
import workloads
from checks import CheckFailed
from hypsurf.cli import main as cli_main


def run_cli(tmp_path, argv, output=None):
    op = workloads.Op("op", tuple(argv), "test", output=output)
    res = workloads.run_op(op, cli_main, tmp_path, calibrate.Clock())
    assert res.rc == 0, (tmp_path / "op.stderr").read_text()
    return tmp_path / (output or "op.stdout")


AXES_SPEC = {"group": "octagon", "n": 3, "mode": "axes", "separation": None,
             "delta": 0.2}


@pytest.fixture
def octagon_axes(tmp_path):
    path = run_cli(tmp_path, ["limit-set", "--group", "octagon", "--n", "3",
                              "-o", str(tmp_path / "s.csv")], "s.csv")
    return checks.parse_endpoint_csv(path.read_text())


def test_endpoint_sample_passes(octagon_axes):
    angles, words = octagon_axes
    spot = list(range(len(angles)))
    assert checks.check_endpoints(angles, words, AXES_SPEC, spot) == len(angles)


def test_perturbed_angle_is_rejected(octagon_axes):
    angles, words = octagon_axes
    i = len(angles) // 2
    angles[i] += 1e-7  # stays sorted, leaves the fixed point
    checks.check_increasing(angles)
    with pytest.raises(CheckFailed, match="angle off"):
        checks.check_endpoints(angles, words, AXES_SPEC, [i])


def test_unsorted_row_is_rejected(octagon_axes):
    angles, words = octagon_axes
    angles[3], angles[4] = angles[4], angles[3]
    words[3], words[4] = words[4], words[3]
    with pytest.raises(CheckFailed, match="strictly increasing"):
        checks.check_endpoints(angles, words, AXES_SPEC, [])


def test_unreduced_words_are_rejected():
    with pytest.raises(CheckFailed, match="freely reduced"):
        checks.check_words(["AB", "ABb"], 4, 3, cyclic=False)
    with pytest.raises(CheckFailed, match="cyclically reduced"):
        checks.check_words(["AB", "ABa"], 4, 3, cyclic=True)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_words(["AE"], 4, 3, cyclic=False)


def test_orbit_sample_passes_and_rejects_a_moved_point(tmp_path):
    path = run_cli(tmp_path, ["limit-set", "--group", "octagon", "--n", "3", "--mode", "orbit",
                              "--format", "json", "-o", str(tmp_path / "o.json")], "o.json")
    angles, words = checks.parse_endpoint_json(path.read_text())
    spec = dict(AXES_SPEC, mode="orbit")
    spot = list(range(len(angles)))
    assert checks.check_endpoints(angles, words, spec, spot) == len(angles)
    angles[0] += 1e-7
    with pytest.raises(CheckFailed, match="angle off"):
        checks.check_endpoints(angles, words, spec, spot)


def test_gap_persistence_reference_matches_the_program():
    from hypsurf.disk import DiskPoint
    from hypsurf.groups import SampleMode, gap_profile, limit_sample, schottky_rank2

    ref = checks.reference_axis_angles("schottky", 4.0, 5)
    s = limit_sample(schottky_rank2(4.0), DiskPoint(0), 5, SampleMode.AXIS_ENDPOINTS)
    assert len(ref) == len(s)
    assert abs(float(checks.gaps(ref).max()) - gap_profile(s)[0]) < 1e-12


CIRCLE_SPEC = {"group": "cusped-torus", "aut": "A=AB,B=B", "n": 5, "separation": None,
               "identity": False, "best_inner": None}


@pytest.fixture
def twist_map(tmp_path):
    out = run_cli(tmp_path, ["boundary-map", "--group", "cusped-torus", "--aut", "A=AB,B=B",
                             "--n", "5", "--check-identity", "--m", "3",
                             "-o", str(tmp_path / "m.csv")])
    tin, tout, words = checks.parse_circle_map_csv((tmp_path / "m.csv").read_text())
    return tin, tout, words, json.loads(out.read_text())


def test_circle_map_and_verdict_pass(twist_map):
    tin, tout, words, verdict = twist_map
    rows = checks.check_circle_map(tin, tout, words, CIRCLE_SPEC, list(range(len(tin))))
    checks.check_verdict(verdict, CIRCLE_SPEC, rows)


def test_swapped_circle_map_pair_is_rejected(twist_map):
    tin, tout, words, _ = twist_map
    tout[2], tout[len(tout) // 2] = tout[len(tout) // 2], tout[2]
    with pytest.raises(CheckFailed, match="order-preserving"):
        checks.check_circle_map(tin, tout, words, CIRCLE_SPEC, [])


def test_moved_theta_out_is_rejected(twist_map):
    tin, tout, words, _ = twist_map
    i = len(tout) // 2
    tout[i] += 1e-8  # keeps the cyclic order, leaves the fixed point of phi(w)
    checks.check_order_preserving(tout)
    with pytest.raises(CheckFailed, match="theta_out off"):
        checks.check_circle_map(tin, tout, words, CIRCLE_SPEC, [i])


def test_wrong_verdicts_are_rejected(twist_map):
    tin, _, _, verdict = twist_map
    rows = len(tin)
    with pytest.raises(CheckFailed, match="non-identity"):
        checks.check_verdict(dict(verdict, identity=True), CIRCLE_SPEC, rows)
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_verdict(dict(verdict, residual=0.01), CIRCLE_SPEC, rows)
    with pytest.raises(CheckFailed, match="order verdict"):
        checks.check_verdict(dict(verdict, order="reversing"), CIRCLE_SPEC, rows)
    inner_spec = dict(CIRCLE_SPEC, identity=True, best_inner="a")
    with pytest.raises(CheckFailed, match="best_inner"):
        checks.check_verdict(dict(verdict, identity=True, best_inner="1"), inner_spec, rows)


PLAN_SPEC = {"sig": (2, 1, 2, 2), "lengths": [1.25, 3.5]}


@pytest.fixture
def plan(tmp_path):
    path = run_cli(tmp_path, ["plan", "--sig", "2,1,2,2", "--lengths", "1.25,3.5",
                              "-o", str(tmp_path / "p.json")], "p.json")
    return json.loads(path.read_text())


def test_plan_passes(plan):
    assert checks.check_plan(plan, PLAN_SPEC) == 3 * 7


def test_plan_with_a_dropped_slot_is_rejected(plan):
    bad = copy.deepcopy(plan)
    bad["cusps"].pop()
    with pytest.raises(CheckFailed, match="never claimed"):
        checks.check_plan(bad, PLAN_SPEC)


def test_plan_with_a_slot_claimed_twice_is_rejected(plan):
    bad = copy.deepcopy(plan)
    bad["boundary"][0]["slot"] = bad["cusps"][0]
    with pytest.raises(CheckFailed, match="claimed twice"):
        checks.check_plan(bad, PLAN_SPEC)


def test_plan_with_unequal_gluing_or_lost_length_is_rejected(plan):
    bad = copy.deepcopy(plan)
    bad["pants"][0]["cuff_lengths"][2] = 2.0
    with pytest.raises(CheckFailed, match="unequal"):
        checks.check_plan(bad, PLAN_SPEC)
    with pytest.raises(CheckFailed, match="boundary lengths"):
        checks.check_plan(plan, dict(PLAN_SPEC, lengths=[1.25, 3.0]))
    bad = copy.deepcopy(plan)
    bad["summary"]["total_area"] += 1e-6
    with pytest.raises(CheckFailed, match="area"):
        checks.check_plan(bad, PLAN_SPEC)


def test_signature_outputs_follow_the_rule():
    for d in workloads.scan_descriptions():
        standard, chi, name = checks.expected_classification(d)
        assert standard == (d["kind"] == "infinite" or (isinstance(chi, int) and chi < 0))
        assert (name is None) == standard
    names = {checks.expected_classification(d)[2] for d in workloads.scan_descriptions()}
    assert len(names - {None}) == 13
    torus = {"kind": "finite", "g": 1, "c": 0, "b": 0, "a": 0}
    checks.check_classify({"standard": False, "reason": "in_thirteen_list", "chi": 0,
                           "name": "torus"}, torus)
    with pytest.raises(CheckFailed):
        checks.check_classify({"standard": True, "reason": "negative_chi", "chi": 0}, torus)
    with pytest.raises(CheckFailed):
        checks.check_chi({"chi": 1}, torus)
    annulus = {"kind": "finite", "g": 0, "c": 0, "b": 2, "a": 0}
    good = {"doubled": {"kind": "finite", "g": 1, "c": 0, "b": 0, "a": 0}, "r": 0,
            "chi_two_chi_minus_r": 0, "chi_two_chi_plus_r": 0, "chi_direct": 0}
    checks.check_double(good, annulus)
    with pytest.raises(CheckFailed):
        checks.check_double(dict(good, doubled={"kind": "finite", "g": 0, "c": 0, "b": 0,
                                                "a": 2}), annulus)


def test_expected_failure_is_counted_and_others_are_not_excused(tmp_path):
    wl = workloads.build("limit-dense", 0)
    n10 = next(op for op in wl.ops if op.expected_error is not None)
    res = workloads.run_op(n10, cli_main, tmp_path, calibrate.Clock())
    assert workloads.classify_outcome(n10, res) == "expected-failure"
    one = workloads.Workload("one", (), (n10,))
    items, problems = checks.check_round(one, [res], tmp_path, 0)
    assert items == {n10.name: 0} and problems == []
    for rc, error in ((2, "NumericFailure"), (3, "OrderViolation"), (None, "ValueError")):
        other = workloads.OpResult(res.name, rc, error, 0.0, {}, 0)
        assert workloads.classify_outcome(n10, other) == "unexpected-failure"
    unexpected = workloads.Op("x", n10.argv, n10.kind, n10.spec, n10.output)
    assert workloads.classify_outcome(unexpected, res) == "unexpected-failure"


def test_a_crash_is_a_failed_operation_with_its_traceback(tmp_path):
    def crashing_main(argv):
        raise ValueError("boom")

    op = workloads.Op("crash", ("chi", "x.json"), "chi", {})
    res = workloads.run_op(op, crashing_main, tmp_path, calibrate.Clock())
    assert (res.rc, res.error) == (None, "ValueError")
    assert "Traceback" in (tmp_path / "crash.stderr").read_text()
    assert workloads.classify_outcome(op, res) == "unexpected-failure"


def test_two_rounds_write_identical_artifacts(tmp_path):
    ops = tuple(op for op in workloads.build("pants-ladder", 3).ops
                if op.name in ("plan-3-2-5-4", "classify-00", "double-05"))
    wl = workloads.Workload("small", (), ops)
    first = workloads.run_round(wl, cli_main, tmp_path / "a", calibrate.Clock())
    second = workloads.run_round(wl, cli_main, tmp_path / "b", calibrate.Clock())
    assert len(workloads.round_digests(first)) == 7
    assert workloads.round_digests(first) == workloads.round_digests(second)
    items, problems = checks.check_round(wl, first, tmp_path / "a", 3)
    assert problems == [] and items["plan-3-2-5-4"] == 3 * 15
