import cmath
import itertools
import json
import math
import random
from dataclasses import replace

import pytest

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
    BoundarySlot,
    CrosscapGluing,
    CuffLengths,
    Gluing,
    MetricSummary,
    PantsNode,
    build_pants,
    hexagon_identity_residual,
    plan_decomposition,
    realize,
)
from hypsurf.signature import Signature
from hypsurf.text import plan_json

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
    lengths = json.loads(plan_json(plan, realize(plan)))["summary"]["cuff_lengths"]
    for slot_obj, expect in zip(plan.boundary_slots, (1.0, 2.0, 3.0)):
        assert lengths[slot_obj.slot] == expect


@pytest.mark.parametrize("bad, error", [(-1.0, NegativeLength), (math.inf, InvalidInput)])
def test_realize_rejects_a_cuff_no_pants_has(bad, error):
    # the accounting closes, so only realize sees the cuff
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    pants = (PantsNode("p0", (bad, 2.0, 3.0)),)
    boundary = (BoundarySlot("p0.c0", bad),) + plan.boundary_slots[1:]
    with pytest.raises(error):
        realize(replace(plan, pants=pants, boundary_slots=boundary))


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
def test_plan_rejects_claims_of_unknown_slots(slot):
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    last = plan.gluings[-1]
    with pytest.raises(InvalidInput, match="slot accounting broken"):
        replace(plan, gluings=plan.gluings[:-1] + (Gluing(last.slot_from, slot, 1.0),))


def test_plan_rejects_duplicate_node_ids():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    with pytest.raises(InvalidInput, match="pants id p0 used twice"):
        replace(plan, pants=plan.pants + (PantsNode("p0", (4.0, 5.0, 6.0)),))


def test_plan_rejects_a_pants_without_three_cuffs():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    with pytest.raises(InvalidInput, match="pants p0 has 4 cuffs, not 3"):
        replace(plan, pants=(PantsNode("p0", (1.0, 2.0, 3.0, 4.0)),))


def test_plan_rejects_a_nan_gluing():
    # abs(nan - nan) > 0.0 is False: a NaN gluing once passed
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    nan = math.nan
    pants = (PantsNode("p0", (1.0, 1.0, nan)), PantsNode("p1", (nan, 1.0, 1.0)))
    gluings = (Gluing("p0.c2", "p1.c0", nan),) + plan.gluings[1:]
    with pytest.raises(LengthMismatch) as info:
        replace(plan, pants=pants, gluings=gluings)
    assert info.value.offending == gluings[:1]


def test_plan_rejects_a_boundary_slot_off_its_cuff():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    moved = (BoundarySlot("p0.c1", 2.5),)
    with pytest.raises(LengthMismatch) as info:
        replace(plan, boundary_slots=plan.boundary_slots[:1] + moved + plan.boundary_slots[2:])
    assert info.value.offending == moved


def test_plan_rejects_a_crosscap_off_its_cuff():
    plan = plan_decomposition(Signature(0, 1, 0, 2))
    assert plan.crosscap_gluings == (CrosscapGluing("p0.c0", 1.0),)
    with pytest.raises(LengthMismatch):
        replace(plan, crosscap_gluings=(CrosscapGluing("p0.c0", 3.0),))


def test_plan_rejects_a_cusp_with_a_nonzero_cuff():
    plan = plan_decomposition(Signature(0, 0, 0, 3))
    pants = (PantsNode("p0", (0.0, 0.5, 0.0)),)
    with pytest.raises(LengthMismatch) as info:
        replace(plan, pants=pants)
    assert info.value.offending == ("p0.c1",)


def test_plan_accounting_messages_name_the_fault():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInput, match=r"^slot p0.c0 used twice \(boundary and cusp\)$"):
        replace(plan, cusp_slots=("p0.c0",))
    with pytest.raises(InvalidInput,
                       match=r"^slot accounting broken: missing \['p0.c2'\], extra \[\]$"):
        replace(plan, boundary_slots=plan.boundary_slots[:2])
    # a crosscap's length is checked as it is claimed, before a later slot used twice
    with pytest.raises(NegativeLength, match="crosscap cuff p0.c0 needs positive length"):
        replace(plan, crosscap_gluings=(CrosscapGluing("p0.c0", 0.0),),
                boundary_slots=plan.boundary_slots[1:], cusp_slots=("p0.c1",))


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


#: boundary lengths in each form of `%.17g`: subnormal, exponent, fixed
#: with a leading zero, fixed without one, large exponent
FLOAT_FORMS = (5e-324, 1e-300, 0.1, 123456789.123, 1e300)


def test_plan_matches_the_two_pass_oracle():
    # what `hypsurf plan` prints, against the plan laid out and rendered
    # by the two-pass references
    small = [
        (g, c, b, a)
        for g in range(5) for c in range(9) for b in range(9) for a in range(9)
        if 2 * g + c + b + a <= 8 and Signature(g, c, b, a).chi() < 0
    ]
    rng = random.Random(10)
    forms = itertools.cycle(FLOAT_FORMS)
    used = set()
    for sig in small + list(PLAN_LADDER):
        s = Signature(*sig)
        lengths = tuple(next(forms) if k % 2 else round(rng.uniform(0.5, 6.0), 6)
                        for k in range(s.b))
        used.update(lengths)
        plan = plan_decomposition(s, lengths)
        reference = oracles.plan_decomposition(s, lengths)
        assert plan_json(plan, realize(plan)) == oracles.plan_text(reference, realize(reference)), sig
    assert used >= set(FLOAT_FORMS)


def test_plan_json_schema():
    plan = plan_decomposition(Signature(1, 1, 1, 1), (2.5,))
    obj = json.loads(plan_json(plan, realize(plan)))
    assert list(obj) == ["pants", "gluings", "crosscaps", "boundary", "cusps", "summary"]
    assert all(list(g) == ["from", "to", "length", "twist"] for g in obj["gluings"])
    assert all(list(c) == ["slot", "length"] for c in obj["crosscaps"])
    assert obj["boundary"][0]["length"] == 2.5
    assert list(obj["summary"]) == ["total_area", "pants_count", "cuff_lengths"]
    assert list(obj["summary"]["cuff_lengths"]) == [f"p{i}.c{k}" for i in range(3) for k in range(3)]


def test_plan_json_refuses_a_non_finite_float():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    summary = realize(plan)
    broken = MetricSummary(math.nan, summary.pants_count)
    with pytest.raises(InvalidInput, match="non-finite float has no JSON encoding here"):
        plan_json(plan, broken)


def test_plan_json_keeps_the_sign_of_zero():
    # 0.0 and -0.0 are one value but two texts
    plan = plan_decomposition(Signature(0, 0, 0, 3))
    signed = replace(plan, pants=(PantsNode("p0", (0.0, -0.0, 0.0)),))
    text = plan_json(signed, realize(signed))
    assert text == oracles.plan_text(signed, realize(signed))
    assert '"p0.c1":-0,' in text


def test_pants_geometry_json_inf_marker():
    obj = build_pants(CuffLengths(0, 1.0, 1.0)).to_json()
    assert obj["seams"]["d12"] == "inf"
    assert isinstance(obj["seams"]["d23"], float)
