import cmath
import math
import random
from dataclasses import replace

import pytest

from hypsurf.cli import dump_json
from hypsurf.disk import MobiusIsometry
from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    LengthCountMismatch,
    LengthMismatch,
    NegativeLength,
    NotHyperbolizable,
)
from hypsurf import pants
from hypsurf.pants import (
    CuffLengths,
    PantsNode,
    build_pants,
    hexagon_identity_residual,
    plan_decomposition,
    realize,
)
from hypsurf.signature import Signature

import oracles

# frozen from the walk-closure solver below, symmetric cuffs (2, 2, 2)
SEAM_222 = 1.7049128323580138
# the rotation by pi/2 about the origin
QUARTER_TURN = MobiusIsometry(cmath.exp(0.25j * math.pi), 0)


def hexagon_walk_defect(sides):
    """Independent oracle: traverse a right-angled hexagon with the given
    alternating sides as a chain of translate/turn isometries; the defect
    is the distance of the holonomy from +-identity."""
    m = MobiusIsometry.identity()
    for s in sides:
        step = MobiusIsometry(math.cosh(s / 2), math.sinh(s / 2))
        m = m.compose(step).compose(QUARTER_TURN)
    return min(max(abs(m.a - 1), abs(m.b)), max(abs(m.a + 1), abs(m.b)))


def closed_hexagon_defect(cuffs, seams):
    x1, x2, x3 = cuffs
    d12, d23, d31 = seams
    return hexagon_walk_defect([x1 / 2, d12, x2 / 2, d23, x3 / 2, d31])


def test_symmetric_seam_against_bisection_solver():
    # solve the closure equation for the symmetric hexagon independently
    from scipy.optimize import brentq

    def defect_signed(d):
        # signed version: Im(a) of the holonomy changes sign across the root
        m = MobiusIsometry.identity()
        for s in (1.0, d, 1.0, d, 1.0, d):
            m = m.compose(MobiusIsometry(math.cosh(s / 2), math.sinh(s / 2)))
            m = m.compose(QUARTER_TURN)
        return m.a.imag

    root = brentq(defect_signed, 1.0, 3.0, xtol=1e-13)
    assert root == pytest.approx(SEAM_222, abs=1e-9)
    pg = build_pants(CuffLengths(2.0, 2.0, 2.0))
    assert pg.d12 == pytest.approx(SEAM_222, abs=1e-12)
    assert pg.d12 == pg.d23 == pg.d31


def test_ideal_pants():
    pg = build_pants(CuffLengths(0, 0, 0))
    assert all(math.isinf(d) for d in pg.seams())
    assert pg.area == pytest.approx(2 * math.pi)


def test_cusp_makes_adjacent_seams_infinite():
    pg = build_pants(CuffLengths(1.0, 2.0, 0.0))
    assert math.isfinite(pg.d12)
    assert math.isinf(pg.d23) and math.isinf(pg.d31)


def test_permuted_cuffs_permute_seams():
    p = build_pants(CuffLengths(0.7, 1.9, 3.2))
    q = build_pants(CuffLengths(1.9, 0.7, 3.2))
    assert q.d12 == pytest.approx(p.d12, abs=1e-15)
    assert q.d23 == pytest.approx(p.d31, abs=1e-15)
    assert q.d31 == pytest.approx(p.d23, abs=1e-15)


def test_negative_cuff_rejected():
    with pytest.raises(NegativeLength):
        CuffLengths(-0.1, 1.0, 1.0)


def test_hexagon_identity_residual_100_random_triples():
    rng = random.Random(20260811)
    for _ in range(100):
        x = CuffLengths(*(rng.uniform(0.1, 5.0) for _ in range(3)))
        pg = build_pants(x)
        assert hexagon_identity_residual(x, pg) < 1e-9


def test_hexagon_walk_closure_100_random_triples():
    rng = random.Random(7)
    for _ in range(100):
        cuffs = tuple(rng.uniform(0.1, 5.0) for _ in range(3))
        pg = build_pants(CuffLengths(*cuffs))
        assert closed_hexagon_defect(cuffs, pg.seams()) < 1e-9


def test_seam_monotonicity_signs():
    # growing one cuff pulls its adjacent seams in and pushes the
    # opposite seam out (checked by finite differences, sign only)
    rng = random.Random(3)
    h = 1e-6
    for _ in range(20):
        x = [rng.uniform(0.2, 4.0) for _ in range(3)]
        base = build_pants(CuffLengths(*x))
        up = build_pants(CuffLengths(x[0], x[1], x[2] + h))
        assert up.d12 > base.d12       # opposite seam grows
        assert up.d23 < base.d23       # adjacent seams shrink
        assert up.d31 < base.d31


def test_plan_single_pants():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    assert len(plan.pants) == 1
    assert len(plan.gluings) == 0
    assert [b.length for b in plan.boundary_slots] == [1.0, 2.0, 3.0]
    assert plan.cusp_slots == ()


def test_plan_genus_two():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    assert len(plan.pants) == 2
    assert len(plan.gluings) == 3
    assert plan.boundary_slots == () and plan.cusp_slots == ()


def test_plan_once_punctured_torus():
    plan = plan_decomposition(Signature(1, 0, 0, 1))
    assert len(plan.pants) == 1
    assert len(plan.gluings) == 1
    g = plan.gluings[0]
    assert g.slot_from.split(".")[0] == g.slot_to.split(".")[0]  # self-gluing
    assert len(plan.cusp_slots) == 1


def test_plan_rejects_nonhyperbolizable_and_count_mismatch():
    with pytest.raises(NotHyperbolizable):
        plan_decomposition(Signature(1, 0, 0, 0))
    with pytest.raises(NotHyperbolizable):
        plan_decomposition(Signature(0, 0, 2, 0), (1.0, 1.0))
    with pytest.raises(LengthCountMismatch):
        plan_decomposition(Signature(0, 0, 3, 0), (1.0,))
    with pytest.raises(NegativeLength):
        plan_decomposition(Signature(0, 0, 3, 0), (1.0, -2.0, 3.0))


def test_plan_refuses_more_than_max_pants(monkeypatch):
    assert pants.MAX_PANTS == 100_000
    with pytest.raises(BudgetExceeded):
        plan_decomposition(Signature(10**300, 0, 0, 0))
    monkeypatch.setattr(pants, "MAX_PANTS", 3)
    assert len(plan_decomposition(Signature(2, 0, 0, 1)).pants) == 3
    with pytest.raises(BudgetExceeded):
        plan_decomposition(Signature(2, 0, 0, 2))


def test_plan_totals_on_random_signatures():
    rng = random.Random(42)
    for _ in range(50):
        while True:
            s = Signature(rng.randrange(3), rng.randrange(3),
                          rng.randrange(4), rng.randrange(4))
            if -10 <= s.chi() <= -1:
                break
        lengths = tuple(0.5 + i for i in range(s.b))
        plan = plan_decomposition(s, lengths)
        assert len(plan.pants) == -s.chi()
        assert len(plan.crosscap_gluings) == s.c
        assert len(plan.boundary_slots) == s.b
        assert len(plan.cusp_slots) == s.a
        # slot accounting closes: 3 * pants = 2 * gluings + crosscaps + b + a
        assert 3 * len(plan.pants) == (
            2 * len(plan.gluings)
            + len(plan.crosscap_gluings)
            + len(plan.boundary_slots)
            + len(plan.cusp_slots)
        )
        summary = realize(plan)
        assert summary.total_area == pytest.approx(-2 * math.pi * s.chi(), abs=1e-9)


def test_realize_areas():
    assert realize(plan_decomposition(Signature(2, 0, 0, 0))).total_area == pytest.approx(
        4 * math.pi
    )
    assert realize(plan_decomposition(Signature(0, 0, 0, 3))).total_area == pytest.approx(
        2 * math.pi
    )


def test_realize_boundary_lengths_survive():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    summary = realize(plan)
    lengths = dict(summary.cuff_lengths)
    for slot_obj, expect in zip(plan.boundary_slots, (1.0, 2.0, 3.0)):
        assert lengths[slot_obj.slot] == expect


def test_realize_detects_length_mismatch():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    bad_pants = tuple(
        PantsNode(p.node_id, (p.cuff_lengths[0], p.cuff_lengths[1], 2.0))
        if p.node_id == "p0"
        else p
        for p in plan.pants
    )
    with pytest.raises(LengthMismatch) as info:
        realize(replace(plan, pants=bad_pants))
    assert len(info.value.offending) >= 1


def test_realize_detects_broken_slot_accounting():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInput):  # p0.c0 is also a boundary slot
        realize(replace(plan, cusp_slots=("p0.c0",)))


@pytest.mark.parametrize("slot", ["p0.c3", "p0", "x.y.z", "p9.c0", "", "p0.c", "p0.c0.", "p0.C0"])
def test_slot_length_rejects_unknown_slots(slot):
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    with pytest.raises(InvalidInput):
        plan.slot_length(slot)


def test_slot_length_first_duplicate_node_wins():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    dup = replace(plan, pants=plan.pants + (PantsNode("p0", (4.0, 5.0, 6.0)),))
    assert [dup.slot_length(f"p0.c{k}") for k in range(3)] == [1.0, 2.0, 3.0]


def test_plan_is_checked_once_per_object(monkeypatch):
    calls = []
    check = pants._check_plan

    def counting(plan):
        calls.append(plan)
        check(plan)

    monkeypatch.setattr(pants, "_check_plan", counting)
    plan = plan_decomposition(Signature(1, 1, 1, 1), (2.5,))
    assert calls == [plan]  # checked at construction
    summary = realize(plan)
    assert len(calls) == 1
    realize(plan)
    assert len(calls) == 1
    copy = replace(plan)
    assert realize(copy) == summary
    assert len(calls) == 2 and calls[1] is copy


#: the (g, c, b, a) rungs of the benchmark's pants ladder
PLAN_LADDER = (
    (2, 0, 0, 0), (10, 0, 0, 0), (40, 0, 0, 0), (150, 0, 0, 0), (0, 300, 0, 0),
    (0, 0, 3, 0), (20, 0, 60, 0), (0, 0, 0, 300), (50, 40, 30, 80), (3, 2, 5, 4),
)


def _plan_output(build, s, lengths):
    # what `hypsurf plan` prints
    plan = build(s, lengths)
    payload = plan.to_json()
    payload["summary"] = realize(plan).to_json()
    return dump_json(payload)


def test_plan_matches_the_two_pass_oracle():
    small = [
        (g, c, b, a)
        for g in range(5) for c in range(9) for b in range(9) for a in range(9)
        if 2 * g + c + b + a <= 8 and Signature(g, c, b, a).chi() < 0
    ]
    rng = random.Random(10)
    for sig in small + list(PLAN_LADDER):
        s = Signature(*sig)
        lengths = tuple(round(rng.uniform(0.5, 6.0), 6) for _ in range(s.b))
        assert (_plan_output(plan_decomposition, s, lengths)
                == _plan_output(oracles.plan_decomposition, s, lengths)), sig


def test_plan_json_schema():
    plan = plan_decomposition(Signature(1, 1, 1, 1), (2.5,))
    obj = plan.to_json()
    assert set(obj) == {"pants", "gluings", "crosscaps", "boundary", "cusps"}
    assert all(set(g) == {"from", "to", "length", "twist"} for g in obj["gluings"])
    assert all(set(c) == {"slot", "length"} for c in obj["crosscaps"])
    assert obj["boundary"][0]["length"] == 2.5


def test_pants_geometry_json_inf_marker():
    obj = build_pants(CuffLengths(0, 1.0, 1.0)).to_json()
    assert obj["seams"]["d12"] == "inf"
    assert isinstance(obj["seams"]["d23"], float)
