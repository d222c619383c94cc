import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import disk_points, geodesics, isometries
from hypsurf.disk import (
    DiskPoint,
    Geodesic,
    HalfPlane,
    IdealPoint,
    IsometryClass,
    MobiusIsometry,
    Side,
    angle_distance,
    apply,
    axis,
    classify,
    euclidean_diameter,
    fixed_points,
    geodesic_through,
    hyp_distance,
    reduce_angle,
    translation_along,
)
from hypsurf.errors import (
    AmbiguousClass,
    CoincidentPoints,
    EmptySet,
    IdentityInput,
    InvalidInput,
    NonpositiveLength,
    NotHyperbolic,
    NumericFailure,
)

LN3 = 1.0986122886681098  # 2 * atanh(1/2), cross-checked by quadrature below


def test_disk_point_rejects_boundary():
    with pytest.raises(InvalidInput):
        DiskPoint(1.0)
    with pytest.raises(InvalidInput):
        DiskPoint(0.8 + 0.7j)
    DiskPoint(0.999999)


def test_ideal_point_angle_reduction():
    assert IdealPoint(2.0 * math.pi).theta == 0.0
    assert IdealPoint(-0.5).theta == pytest.approx(2.0 * math.pi - 0.5)
    assert IdealPoint(7.0).close_to(IdealPoint(7.0 - 2.0 * math.pi))
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInput):
            IdealPoint(theta)


def test_reduce_angle_of_a_tiny_negative_angle_is_zero():
    tiny = -1e-17
    assert tiny % (2.0 * math.pi) == 2.0 * math.pi  # the plain shift rounds up
    angles = [tiny, -0.5, 7.0, 0.0, -2.0 * math.pi]
    reduced = reduce_angle(np.array(angles))
    assert reduced.tolist() == [reduce_angle(t) for t in angles]
    assert reduced[0] == 0.0 and reduced.max() < 2.0 * math.pi


def test_distance_identity_case():
    assert hyp_distance(DiskPoint(0), DiskPoint(0)) == 0.0


def test_distance_radial_value_against_quadrature():
    # independent oracle: arc length of the radial segment under 2/(1-r^2)
    from scipy.integrate import quad

    val, err = quad(lambda r: 2.0 / (1.0 - r * r), 0.0, 0.5)
    assert err < 1e-12
    assert val == pytest.approx(LN3, abs=1e-12)
    assert hyp_distance(DiskPoint(0), DiskPoint(0.5)) == pytest.approx(LN3, abs=1e-12)


def test_distance_symmetry_100_random_pairs():
    rng = random.Random(11)
    for _ in range(100):
        p = DiskPoint(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        q = DiskPoint(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        assert abs(hyp_distance(p, q) - hyp_distance(q, p)) < 1e-12


def test_triangle_inequality_random_triples():
    rng = random.Random(13)
    for _ in range(100):
        pts = [
            DiskPoint(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            for _ in range(3)
        ]
        d01 = hyp_distance(pts[0], pts[1])
        d12 = hyp_distance(pts[1], pts[2])
        d02 = hyp_distance(pts[0], pts[2])
        assert d02 <= d01 + d12 + 1e-9


def test_apply_identity():
    m = MobiusIsometry.identity()
    p = DiskPoint(0.3 + 0.4j)
    assert apply(m, p).z == p.z
    q = IdealPoint(1.0)
    assert apply(m, q).close_to(q)


def test_apply_translation_matrix_oracle():
    t = 1.3
    m = MobiusIsometry(math.cosh(t / 2), math.sinh(t / 2))
    # direct matrix evaluation at z = 0
    expected = m.b / m.a.conjugate()
    got = apply(m, DiskPoint(0))
    assert got.z == pytest.approx(expected)
    assert got.z.real == pytest.approx(math.tanh(t / 2), abs=1e-15)


@given(isometries(), disk_points(), disk_points())
def test_apply_preserves_distance(m, p, q):
    assert abs(
        hyp_distance(apply(m, p), apply(m, q)) - hyp_distance(p, q)
    ) < 1e-9


def test_apply_preserves_distance_100_seeded_triples():
    rng = random.Random(100)
    for _ in range(100):
        g = Geodesic(IdealPoint(rng.uniform(0, 6.2)), IdealPoint(rng.uniform(0, 6.2) + 0.7))
        m = translation_along(g, rng.uniform(0.1, 2.5)).compose(
            MobiusIsometry.rotation(rng.uniform(0, 6.2))
        )
        p = DiskPoint(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
        q = DiskPoint(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
        assert abs(hyp_distance(apply(m, p), apply(m, q)) - hyp_distance(p, q)) < 1e-9


@given(isometries(), st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_apply_keeps_ideal_points_on_circle(m, t):
    out = apply(m, IdealPoint(t))
    assert isinstance(out, IdealPoint)
    assert abs(abs(out.z) - 1.0) < 1e-12


def test_apply_overflow_near_boundary_raises():
    huge = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 30.0)
    p = DiskPoint(1.0 - 1e-15)
    with pytest.raises(NumericFailure):
        # pushing an almost-boundary point with a huge translation rounds
        # onto the circle
        apply(huge, p)


def test_giant_translation_overflows_as_numeric_failure():
    with pytest.raises(NumericFailure):
        translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 80.0)


def test_classify_rotation_elliptic():
    m = MobiusIsometry(cmath.exp(1j * math.pi / 6), 0.0)  # rotation by pi/3
    assert classify(m) is IsometryClass.ELLIPTIC


def test_classify_translation_hyperbolic_with_fixed_points():
    m = MobiusIsometry(math.cosh(1.0), math.sinh(1.0))
    assert classify(m) is IsometryClass.HYPERBOLIC
    # by-hand oracle: roots of conj(b) z^2 + (conj(a)-a) z - b on |z|=1
    roots = np.roots([m.b.conjugate(), m.a.conjugate() - m.a, -m.b])
    angles = sorted(float(np.angle(z)) % (2 * math.pi) for z in roots)
    got = sorted(p.theta for p in fixed_points(m))
    assert got == pytest.approx(angles, abs=1e-12)
    assert got == pytest.approx([0.0, math.pi], abs=1e-12)


def test_classify_parabolic_single_fixed_point():
    m = MobiusIsometry(1 + 0.7j, 0.7j)  # |a|^2 - |b|^2 = 1 + .49 - .49
    assert classify(m) is IsometryClass.PARABOLIC
    pts = fixed_points(m)
    assert len(pts) == 1
    # discriminant-zero oracle
    disc = (m.a.conjugate() - m.a) ** 2 + 4 * abs(m.b) ** 2
    assert abs(disc) < 1e-12
    assert pts[0].theta == pytest.approx(math.pi)


def test_classify_identity_both_signs():
    assert classify(MobiusIsometry(1.0, 0.0)) is IsometryClass.IDENTITY
    assert classify(MobiusIsometry(-1.0, 0.0)) is IsometryClass.IDENTITY


def test_classify_ambiguous_band_surfaces():
    # rotation by 1e-7: trace inside the band, b = 0, not the identity
    with pytest.raises(AmbiguousClass):
        classify(MobiusIsometry(cmath.exp(0.5e-7j), 0.0))


@given(isometries(), isometries())
def test_classify_conjugation_invariant(g, m):
    try:
        c1 = classify(m)
    except AmbiguousClass:
        return
    conj = g.compose(m).compose(g.inverse())
    assert classify(conj) is c1


def test_fixed_points_identity_input():
    with pytest.raises(IdentityInput):
        fixed_points(MobiusIsometry.identity())


def test_fixed_points_rotation_empty():
    assert fixed_points(MobiusIsometry.rotation(1.0)) == []


def test_fixed_points_attracting_first_by_iteration():
    t = 0.8
    m = MobiusIsometry(math.cosh(t / 2), math.sinh(t / 2))
    att = fixed_points(m)[0]
    z = DiskPoint(0.1 + 0.2j)
    for _ in range(200):
        z = apply(m, z)
    assert angle_distance(cmath.phase(z.z), att.theta) < 1e-6


def test_attraction_for_generic_translations():
    rng = random.Random(5)
    for _ in range(10):
        g = Geodesic(IdealPoint(rng.uniform(0, 6.2)), IdealPoint(rng.uniform(0, 6.2) + 1.0))
        m = translation_along(g, rng.uniform(0.1, 2.0))
        att = fixed_points(m)[0]
        z = DiskPoint(0)
        for _ in range(200):
            try:
                z = apply(m, z)
            except NumericFailure:
                break  # the orbit rounded onto the circle: converged
        assert angle_distance(cmath.phase(z.z), att.theta) < 1e-6


def test_axis_translation_canonical():
    m = MobiusIsometry(math.cosh(0.5), math.sinh(0.5))
    g = axis(m)
    assert g.same_as(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 1e-12)


def test_axis_equivariance_under_conjugation():
    m = translation_along(Geodesic(IdealPoint(0.4), IdealPoint(2.2)), 1.1)
    g = translation_along(Geodesic(IdealPoint(1.0), IdealPoint(4.0)), 0.7).compose(
        MobiusIsometry.rotation(0.9)
    )
    conj = g.compose(m).compose(g.inverse())
    expected = Geodesic(apply(g, axis(m).e1), apply(g, axis(m).e2))
    assert axis(conj).same_as(expected, 1e-9)


def test_axis_shared_by_powers():
    m = translation_along(Geodesic(IdealPoint(0.4), IdealPoint(2.2)), 0.9)
    assert axis(m).same_as(axis(m.compose(m)), 1e-9)


def test_axis_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        axis(MobiusIsometry.rotation(1.0))


def test_geodesic_through_antipodal_ideal_points():
    g = geodesic_through(IdealPoint(0.3), IdealPoint(0.3 + math.pi))
    assert g.is_diameter()


def test_geodesic_through_origin_and_half():
    g = geodesic_through(DiskPoint(0), DiskPoint(0.5))
    assert g.same_as(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 1e-12)
    assert g.e1.theta == pytest.approx(0.0, abs=1e-12)  # e1 on the y side


def test_geodesic_through_coincident_points():
    with pytest.raises(CoincidentPoints):
        geodesic_through(DiskPoint(0.1), DiskPoint(0.1))
    with pytest.raises(CoincidentPoints):
        geodesic_through(IdealPoint(1.0), IdealPoint(1.0 + 1e-12))


@given(disk_points(), disk_points())
def test_geodesic_through_orthogonal_circle_oracle(p, q):
    if abs(p.z - q.z) < 1e-3:
        return
    g = geodesic_through(p, q)
    u, v = g.e1.z, g.e2.z
    if abs(u + v) < 1e-9:
        # diameter: both points sit on the line through u
        for w in (p.z, q.z):
            assert abs((w * u.conjugate()).imag) < 1e-10
        return
    # orthogonal circle through u, v: center c with Re(conj(u) c) = 1 = Re(conj(v) c)
    a = np.array([[u.real, u.imag], [v.real, v.imag]])
    c = np.linalg.solve(a, np.ones(2))
    c = complex(c[0], c[1])
    r = math.sqrt(abs(c) ** 2 - 1.0)
    for w in (p.z, q.z):
        assert abs(abs(w - c) - r) < 1e-10


def test_euclidean_diameter_cases():
    assert euclidean_diameter([DiskPoint(0)]) == 0.0
    assert euclidean_diameter([DiskPoint(-0.25), DiskPoint(0.25)]) == pytest.approx(0.5)
    with pytest.raises(EmptySet):
        euclidean_diameter([])


def test_euclidean_diameter_brute_force_oracle():
    rng = random.Random(3)
    pts = [
        DiskPoint(complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 0.6)))
        for _ in range(100)
    ]
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, abs(pts[i].z - pts[j].z))
    assert euclidean_diameter(pts) == pytest.approx(best, abs=1e-15)


def test_translation_along_canonical_matrix():
    t = 0.9
    m = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), t)
    assert m.a == pytest.approx(math.cosh(t / 2))
    assert m.b == pytest.approx(math.sinh(t / 2))


def test_translation_along_conjugation_oracle():
    # rotating the canonical axis must conjugate the canonical translation
    t, phi = 1.4, 0.8
    g = Geodesic(IdealPoint(phi), IdealPoint(phi + math.pi))
    m = translation_along(g, t)
    r = MobiusIsometry.rotation(phi)
    canon = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), t)
    expected = r.compose(canon).compose(r.inverse())
    assert abs(m.a - expected.a) < 1e-12 and abs(m.b - expected.b) < 1e-12


@given(geodesics(), st.floats(min_value=0.1, max_value=4.0))
def test_translation_along_axis_and_length(g, t):
    m = translation_along(g, t)
    assert classify(m) is IsometryClass.HYPERBOLIC
    assert axis(m).same_as(g, 1e-9)
    assert m.translation_length() == pytest.approx(t, abs=1e-9)
    # squared translation doubles the length
    assert m.compose(m).translation_length() == pytest.approx(2 * t, abs=1e-9)


def test_translation_along_rejects_nonpositive_length():
    g = Geodesic(IdealPoint(0), IdealPoint(math.pi))
    with pytest.raises(NonpositiveLength):
        translation_along(g, 0.0)
    with pytest.raises(NonpositiveLength):
        translation_along(g, -1.0)


@given(geodesics(), st.floats(min_value=0.1, max_value=3.0), disk_points())
def test_half_plane_membership_invariant_under_boundary_fixing(g, t, p):
    hp = HalfPlane(g, Side.LEFT)
    m = translation_along(g, t)  # fixes the boundary geodesic and its sides
    assert hp.contains(p) == hp.contains(apply(m, p))
    hp2 = HalfPlane(g, Side.RIGHT)
    assert hp2.contains(p) == hp2.contains(apply(m, p))


def test_half_plane_sides_partition():
    g = Geodesic(IdealPoint(0), IdealPoint(math.pi))
    left = HalfPlane(g, Side.LEFT)
    right = HalfPlane(g, Side.RIGHT)
    p = DiskPoint(0.2 - 0.3j)
    assert left.contains(p) != right.contains(p)
    on_boundary = DiskPoint(0.4)
    assert left.contains(on_boundary) and right.contains(on_boundary)


def test_compose_inverse_roundtrip_with_reversal():
    m = MobiusIsometry(math.cosh(0.7), math.sinh(0.7) * cmath.exp(0.4j), True)
    assert m.compose(m.inverse()).is_identity(1e-12)
    assert m.inverse().compose(m).is_identity(1e-12)


def test_orientation_reversing_flag_composition():
    m = MobiusIsometry(math.cosh(0.7), math.sinh(0.7), True)
    r = MobiusIsometry.rotation(0.6)
    assert m.compose(r).reverses_orientation
    assert m.compose(m).reverses_orientation is False
    # reversal acts on ideal points by conjugating first
    t = apply(m, IdealPoint(1.0))
    mm = MobiusIsometry(m.a, m.b)
    assert t.close_to(apply(mm, IdealPoint(-1.0)), 1e-12)


def test_classify_reports_matrix_part_for_reversers():
    m = MobiusIsometry(math.cosh(0.7), math.sinh(0.7), True)
    assert classify(m) is IsometryClass.HYPERBOLIC
    with pytest.raises(InvalidInput):
        fixed_points(m)


def test_su11_normalization_enforced():
    m = MobiusIsometry(2.0 * math.cosh(0.3), 2.0 * math.sinh(0.3))
    assert abs(abs(m.a) ** 2 - abs(m.b) ** 2 - 1.0) < 1e-12
    with pytest.raises(InvalidInput):
        MobiusIsometry(0.5, 1.0)  # |a| < |b| is not a disk isometry


def test_isometry_json_roundtrip():
    m = MobiusIsometry(math.cosh(0.7), math.sinh(0.7) * cmath.exp(0.4j), True)
    m2 = MobiusIsometry.from_json(m.to_json())
    assert m2 == m
