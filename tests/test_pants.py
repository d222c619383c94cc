import cmath
import itertools
import json
import math
import random
import re
from dataclasses import replace

import mpmath
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
    CuffLengths,
    MetricSummary,
    build_pants,
    hexagon_identity_residual,
    plan_decomposition,
    realize,
)
from hypsurf.signature import Signature
from hypsurf.text import dump_json, plan_json

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


def _seam_reference(xi, xj, xk):
    """d = 2 asinh(sqrt(u/2)) = acosh(1 + u), u = (cosh((xi - xj)/2) +
    cosh(xk/2)) / (sinh(xi/2) sinh(xj/2)), at 200 bits with xi - xj exact."""
    with mpmath.workprec(200):
        a, b, c = (mpmath.mpf(x) / 2 for x in (xi, xj, xk))
        u = ((mpmath.cosh(mpmath.fsub(a, b, exact=True)) + mpmath.cosh(c))
             / (mpmath.sinh(a) * mpmath.sinh(b)))
        return 2 * mpmath.asinh(mpmath.sqrt(u / 2))


@pytest.mark.parametrize("cuffs, seam", [
    ((1e300, 1.0, 1.0), 1.4068),  # once a bare OverflowError
    ((5e-324, 1.0, 1.0), 747.29),  # once a bare ZeroDivisionError
    ((1e-160, 1e-160, 1.0), 739.66),  # once inf
    ((40.0, 40.0, 1.0), 8.5036e-9),  # once 0: cosh d rounded to 1
    ((1000.0, 1000.0, 1.0), 2.9394e-217),  # u is below the smallest double
])
def test_seam_where_the_direct_quotient_failed(cuffs, seam):
    got = pants._seam(*cuffs)
    assert abs(got - _seam_reference(*cuffs)) <= 1e-13 * got
    assert got == pytest.approx(seam, rel=1e-4)


def test_seam_against_mpmath_from_the_smallest_to_huge_cuffs():
    cuffs = (5e-324, 1e-160, 1e-8, 0.5, 2.0, 40.0, 770.6, 1000.0, 1e300)
    for triple in itertools.product(cuffs, repeat=3):
        want = _seam_reference(*triple)
        # or within one step of the smallest subnormal, where a seam rounds to 0
        assert abs(pants._seam(*triple) - want) <= max(1e-13 * want, 5e-324), triple


def cuffs_of(plan):
    """The plan's cuff column: slot 3i + k is cuff k of pants i."""
    return [x for triple in plan.pants for x in triple]


def test_plan_single_pants():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    assert len(plan.pants) == 1
    assert len(plan.gluings) == 0
    assert plan.boundary == (0, 1, 2)
    assert [cuffs_of(plan)[s] for s in plan.boundary] == [1.0, 2.0, 3.0]
    assert plan.cusps == ()


def test_plan_genus_two():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    assert len(plan.pants) == 2
    assert plan.gluings == ((2, 3), (0, 1), (4, 5))
    assert plan.boundary == () and plan.cusps == ()


def test_plan_once_punctured_torus():
    plan = plan_decomposition(Signature(1, 0, 0, 1))
    assert len(plan.pants) == 1
    assert len(plan.gluings) == 1
    a, b = plan.gluings[0]
    assert a // 3 == b // 3  # self-gluing
    assert len(plan.cusps) == 1


def test_slot_names():
    assert [pants.slot_name(s) for s in range(7)] == [
        "p0.c0", "p0.c1", "p0.c2", "p1.c0", "p1.c1", "p1.c2", "p2.c0"]


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
        assert len(plan.crosscaps) == s.c
        assert len(plan.boundary) == s.b
        assert len(plan.cusps) == s.a
        # slot accounting closes: 3 * pants = 2 * gluings + crosscaps + b + a
        assert 3 * len(plan.pants) == (
            2 * len(plan.gluings)
            + len(plan.crosscaps)
            + len(plan.boundary)
            + len(plan.cusps)
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
    for slot, expect in zip(plan.boundary, (1.0, 2.0, 3.0)):
        assert lengths[pants.slot_name(slot)] == expect


@pytest.mark.parametrize("bad, error, message", [
    (-1.0, NegativeLength, "cuff p0.c0 = -1.0 must be >= +0"),
    (math.inf, InvalidInput, "cuff p0.c0 = inf must be finite"),
    (-math.inf, InvalidInput, "cuff p0.c0 = -inf must be finite"),
    (math.nan, InvalidInput, "cuff p0.c0 = nan must be finite"),
], ids=["-1", "inf", "-inf", "nan"])
def test_plan_rejects_a_cuff_no_pants_has(bad, error, message):
    # the accounting closes, so only the cuff check sees the cuff
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        replace(plan, pants=((bad, 2.0, 3.0),))


def test_plan_rejects_a_negative_zero_cuff():
    # 0.0 and -0.0 are one value but two texts: a plan takes only +0
    plan = plan_decomposition(Signature(0, 0, 0, 3))
    assert math.copysign(1.0, cuffs_of(plan)[1]) == 1.0
    with pytest.raises(NegativeLength, match=r"^cuff p0.c1 = -0.0 must be >= \+0$"):
        replace(plan, pants=((0.0, -0.0, 0.0),))


def test_cuff_lengths_store_negative_zero_as_zero():
    assert [math.copysign(1.0, x) for x in CuffLengths(-0.0, 1.0, -0.0).as_tuple()] == [1.0] * 3
    # what `pants --lengths=-0,1,1` prints
    assert dump_json(build_pants(CuffLengths(-0.0, 1.0, 1.0)).to_json()).startswith(
        '{"cuffs":[0,1,1],')


def test_plan_rejects_a_gluing_of_unequal_cuffs():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    with pytest.raises(LengthMismatch,
                       match=r"^1 gluings join unequal cuffs: p0.c2=2.0 to p1.c0=1.0$"):
        replace(plan, pants=((1.0, 1.0, 2.0), plan.pants[1]))


@pytest.mark.parametrize("slot, message", [
    (-1, r"slot accounting broken: missing \['p0.c1'\], extra \[-1\]"),
    (6, r"slot accounting broken: missing \['p0.c1'\], extra \[6\]"),  # 3P
    (1.0, r"gluing slot 1.0 is not an int"),  # equal to 1, and hashed like it
    (True, r"gluing slot True is not an int"),
], ids=["-1", "3P", "float", "bool"])
def test_plan_rejects_claims_of_unknown_slots(slot, message):
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    assert plan.gluings[1] == (0, 1)
    gluings = (plan.gluings[0], (0, slot), plan.gluings[2])
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        replace(plan, gluings=gluings)


def test_plan_rejects_a_pants_without_three_cuffs():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 2.0, 3.0))
    with pytest.raises(InvalidInput, match="pants p0 has 4 cuffs, not 3"):
        replace(plan, pants=((1.0, 2.0, 3.0, 4.0),))


def test_plan_rejects_a_gluing_without_two_slots():
    # three claims that close the accounting, but no pair
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInput, match=r"^gluing \(0, 1, 2\) has 3 slots, not 2$"):
        replace(plan, gluings=((0, 1, 2),), boundary=())


def test_plan_rejects_a_cuff_that_is_not_a_float():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    with pytest.raises(InvalidInput, match="^cuff p0.c0 = '1' is not a float$"):
        replace(plan, pants=(("1", 2.0, 3.0), plan.pants[1]))
    with pytest.raises(InvalidInput, match="^cuff p1.c2 = 1 is not a float$"):
        replace(plan, pants=(plan.pants[0], (1.0, 1.0, 1)))


def test_plan_rejects_a_gluing_that_is_not_a_pair():
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    with pytest.raises(InvalidInput, match="^gluing 5 has type int, not tuple$"):
        replace(plan, gluings=(5,) + plan.gluings[1:])


@pytest.mark.parametrize("column", ["pants", "gluings", "crosscaps", "boundary", "cusps"])
def test_plan_rejects_list_columns(column):
    # a checked plan cannot be changed afterwards: it holds only tuples
    plan = plan_decomposition(Signature(1, 1, 1, 1), (2.5,))
    with pytest.raises(InvalidInput, match=f"^plan column {column} has type list, not tuple$"):
        replace(plan, **{column: list(getattr(plan, column))})
    if column in ("pants", "gluings"):
        rows = getattr(plan, column)
        with pytest.raises(InvalidInput, match="has type list, not tuple$"):
            replace(plan, **{column: (list(rows[0]),) + rows[1:]})


def test_plan_rejects_a_nan_gluing():
    # abs(nan - nan) > 0.0 is False: a NaN gluing once passed
    plan = plan_decomposition(Signature(2, 0, 0, 0))
    nan = math.nan
    with pytest.raises(InvalidInput, match="cuff p0.c2 = nan must be finite"):
        replace(plan, pants=((1.0, 1.0, nan), (nan, 1.0, 1.0)))


def test_plan_rejects_a_crosscap_of_length_zero():
    plan = plan_decomposition(Signature(0, 1, 0, 2))
    assert plan.crosscaps == (0,) and plan.pants == ((1.0, 0.0, 0.0),)
    with pytest.raises(NegativeLength, match="^crosscap cuff p0.c0 needs positive length$"):
        replace(plan, pants=((0.0, 0.0, 0.0),))


def test_plan_rejects_a_cusp_with_a_nonzero_cuff():
    plan = plan_decomposition(Signature(0, 0, 0, 3))
    with pytest.raises(LengthMismatch, match="^cusp cuff p0.c1 = 0.5 must be 0$"):
        replace(plan, pants=((0.0, 0.5, 0.0),))


def test_plan_accounting_messages_name_the_fault():
    plan = plan_decomposition(Signature(0, 0, 3, 0), (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInput, match=r"^slot p0.c0 used twice \(boundary and cusp\)$"):
        replace(plan, cusps=(0,))
    with pytest.raises(InvalidInput, match=r"^slot 7 used twice \(crosscap and cusp\)$"):
        replace(plan, boundary=(0, 1), crosscaps=(7,), cusps=(7,))
    with pytest.raises(InvalidInput,
                       match=r"^slot accounting broken: missing \['p0.c2'\], extra \[\]$"):
        replace(plan, boundary=plan.boundary[:2])


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
        reference = oracles.plan_text(oracles.plan_decomposition(s, lengths))
        assert plan_json(plan, realize(plan)) == reference, sig
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


def test_pants_geometry_json_inf_marker():
    obj = build_pants(CuffLengths(0, 1.0, 1.0)).to_json()
    assert obj["seams"]["d12"] == "inf"
    assert isinstance(obj["seams"]["d23"], float)
