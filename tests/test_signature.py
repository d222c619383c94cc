import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypsurf.errors import (
    InvalidInput,
    NoBoundary,
    NonorientableDoubleUnsupported,
    UnderdeterminedChi,
)
from hypsurf.signature import (
    NEG_INF,
    FiniteType,
    HalfPlaneSurface,
    InfiniteType,
    Reason,
    Signature,
    Strip,
    all_finite_descriptions,
    description_from_json,
    description_to_json,
    double,
    doubling_report,
    euler_characteristic,
    is_standard,
    thirteen_list,
)

S = Signature
FT = FiniteType


def test_signature_rejects_negative_counts():
    with pytest.raises(InvalidInput):
        S(-1, 0, 0, 0)
    with pytest.raises(InvalidInput):
        S(0, 0, 1.5, 0)


def test_signature_rejects_bools():
    # bool is an int subclass, so True would otherwise count as 1
    for counts in ((True, 0, 0, 0), (0, 0, 0, False)):
        with pytest.raises(InvalidInput):
            S(*counts)


def test_chi_values_from_the_formula():
    table = {
        (0, 0, 0, 0): 2,   # sphere
        (0, 1, 0, 0): 1,   # projective plane
        (1, 0, 0, 0): 0,   # torus
        (0, 2, 0, 0): 0,   # Klein bottle
        (0, 0, 1, 0): 1,   # closed disk
        (0, 0, 2, 0): 0,   # closed annulus
        (0, 0, 0, 2): 0,   # open annulus
        (0, 0, 3, 0): -1,  # pants
        (2, 0, 0, 0): -2,  # genus-2 closed
    }
    for sig, chi in table.items():
        assert euler_characteristic(FT(S(*sig))) == chi


def test_chi_contractible_noncompact_cases():
    assert euler_characteristic(HalfPlaneSurface()) == 1
    assert euler_characteristic(Strip()) == 1


def test_chi_infinite_type():
    assert euler_characteristic(InfiniteType(infinite_chi=True)) == NEG_INF
    with pytest.raises(UnderdeterminedChi):
        euler_characteristic(InfiniteType(infinite_boundary=True))
    with pytest.raises(InvalidInput):
        InfiniteType()


def test_double_closed_disk_is_sphere():
    d = double(FT(S(0, 0, 1, 0)))
    assert d == FT(S(0, 0, 0, 0))
    assert euler_characteristic(d) == 2


def test_double_strip_is_open_annulus_fixing_the_sign():
    d = double(Strip())
    assert d == FT(S(0, 0, 0, 2))
    rep = doubling_report(Strip())
    # chi of the open annulus decides the sign: 2*1 - 2 = 0, not 2*1 + 2
    assert rep.chi_direct == 0
    assert rep.chi_minus_r == 0
    assert rep.chi_plus_r == 4


def test_double_half_plane_is_open_disk():
    d = double(HalfPlaneSurface())
    assert d == FT(S(0, 0, 0, 1))
    rep = doubling_report(HalfPlaneSurface())
    assert rep.chi_direct == rep.chi_minus_r == 1


def test_double_half_open_annulus():
    d = double(FT(S(0, 0, 1, 1)))
    assert d == FT(S(0, 0, 0, 2))
    assert euler_characteristic(d) == 0 == 2 * euler_characteristic(FT(S(0, 0, 1, 1)))


def test_double_requires_boundary():
    with pytest.raises(NoBoundary):
        double(FT(S(1, 0, 0, 0)))
    with pytest.raises(InvalidInput):
        double(InfiniteType(infinite_chi=True))


def test_double_nonorientable_unsupported_carries_chi():
    with pytest.raises(NonorientableDoubleUnsupported) as info:
        double(FT(S(0, 1, 1, 0)))
    assert info.value.chi_double == 0  # Klein bottle


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_double_chi_two_ways(g, b, a):
    d = FT(S(g, 0, b, a))
    rep = doubling_report(d)
    assert rep.chi_direct == rep.chi_minus_r == 2 * euler_characteristic(d)


def test_is_standard_examples():
    v = is_standard(FT(S(1, 0, 0, 0)))
    assert not v.standard and v.name == "torus" and v.reason is Reason.IN_THIRTEEN_LIST
    v = is_standard(FT(S(1, 0, 0, 1)))
    assert v.standard and v.reason is Reason.NEGATIVE_CHI and v.chi == -1
    v = is_standard(FT(S(0, 1, 0, 1)))
    assert not v.standard and v.name == "open Möbius band"
    assert is_standard(HalfPlaneSurface()).name == "half plane"
    assert is_standard(Strip()).name == "doubly infinite strip"
    assert is_standard(InfiniteType(infinite_boundary=True)).standard
    assert is_standard(InfiniteType(infinite_chi=True)).standard


def test_standard_iff_negative_chi_on_finite_scan():
    for d in all_finite_descriptions(4):
        v = is_standard(d)
        assert v.standard == (euler_characteristic(d) < 0)
        if v.standard:
            assert v.reason is Reason.NEGATIVE_CHI and v.name is None
        else:
            assert v.reason is Reason.IN_THIRTEEN_LIST and v.name is not None


def test_thirteen_list_is_the_nonstandard_catalog():
    entries = thirteen_list()
    assert len(entries) == 13
    names = [name for name, _ in entries]
    assert len(set(names)) == 13
    for name, d in entries:
        v = is_standard(d)
        assert not v.standard
        assert v.name == name


def test_scan_nonstandard_set_equals_catalog():
    catalog_names = {name for name, _ in thirteen_list()}
    found = {
        is_standard(d).name
        for d in all_finite_descriptions(4)
        if not is_standard(d).standard
    }
    found |= {is_standard(HalfPlaneSurface()).name, is_standard(Strip()).name}
    assert found == catalog_names


def test_a_finite_description_is_a_catalog_entry_exactly_when_chi_is_nonnegative():
    catalog = {d for _, d in thirteen_list()}
    for d in all_finite_descriptions(12):
        assert (d in catalog) == (euler_characteristic(d) >= 0)


@pytest.mark.parametrize("not_a_description", [None, {"kind": "strip"}, [0, 0, 0, 1]])
def test_is_standard_rejects_what_is_not_a_description(not_a_description):
    # a dict or a list is unhashable: the type check must come before the lookup
    with pytest.raises(InvalidInput):
        is_standard(not_a_description)


def test_doubling_preserves_standardness_where_defined():
    checked = 0
    for d in all_finite_descriptions(10):
        s = d.signature
        if s.b == 0 or s.b > 3 or s.g > 2 or s.a > 2 or s.c > 0:
            continue
        assert is_standard(d).standard == is_standard(double(d)).standard
        checked += 1
    assert checked > 20
    for d in (HalfPlaneSurface(), Strip()):
        assert is_standard(d).standard == is_standard(double(d)).standard


def test_verdict_json_shapes():
    assert is_standard(FT(S(1, 0, 0, 0))).to_json() == {
        "standard": False,
        "reason": "in_thirteen_list",
        "chi": 0,
        "name": "torus",
    }
    assert is_standard(InfiniteType(infinite_chi=True)).to_json()["chi"] == "-inf"
    assert is_standard(InfiniteType(infinite_boundary=True)).to_json()["chi"] is None
    assert is_standard(FT(S(2, 0, 0, 0))).to_json() == {
        "standard": True,
        "reason": "negative_chi",
        "chi": -2,
    }


def test_description_json_roundtrip():
    cases = [
        FT(S(3, 2, 1, 0)),
        HalfPlaneSurface(),
        Strip(),
        InfiniteType(infinite_boundary=True),
        InfiniteType(infinite_boundary=True, infinite_chi=True),
    ]
    for d in cases:
        assert description_from_json(description_to_json(d)) == d
    with pytest.raises(InvalidInput):
        description_from_json({"kind": "nope"})
    with pytest.raises(InvalidInput):
        description_from_json({})
    with pytest.raises(InvalidInput):
        description_from_json({"kind": "finite", "g": 1})


@pytest.mark.parametrize("obj", [
    {"kind": "finite", "g": 1.5, "c": 0, "b": 0, "a": 0},  # once read as the torus
    {"kind": "finite", "g": 1.0, "c": 0, "b": 0, "a": 0},
    {"kind": "finite", "g": True, "c": 0, "b": 0, "a": 0},  # once read as g = 1
    {"kind": "finite", "g": "1", "c": 0, "b": 0, "a": 0},
    {"kind": "infinite", "inf_boundary": "no"},  # once read as true
    {"kind": "infinite", "inf_boundary": True, "inf_chi": 1},
], ids=["g-1.5", "g-1.0", "g-true", "g-string", "inf_boundary-string", "inf_chi-1"])
def test_description_json_values_are_not_coerced(obj):
    with pytest.raises(InvalidInput):
        description_from_json(obj)
