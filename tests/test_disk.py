import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import disk_points, geodesics, isometries
from hypsurf import disk
from hypsurf.disk import (
    TOL_ANGLE,
    DiskPoint,
    MAX_CERTIFIED_ENTRY,
    MobiusIsometry,
    TWO_PI,
    circle_angle,
    circle_fixed_points,
    circle_net,
    is_certainly_hyperbolic,
    reduce_angle,
)
from hypsurf.errors import InvalidInput, NumericFailure

import oracles
from oracles import (
    CoincidentPoints,
    Geodesic,
    IdealPoint,
    NonpositiveLength,
    angle_distance,
    apply,
    hyp_distance,
    translation_along,
)

LN3 = 1.0986122886681098  # 2 * atanh(1/2), cross-checked by quadrature below


def rotation(theta):
    return MobiusIsometry(cmath.exp(0.5j * theta), 0)


def hyperbolic(m):
    return is_certainly_hyperbolic(m.a, m.b)


def fixed_angles(m):
    """The circle fixed points of a hyperbolic m as angles, attracting first."""
    return [reduce_angle(cmath.phase(z)) for z in circle_fixed_points(m.a, m.b)]


def same_endpoints(angles, g, tol):
    """Whether two angles are g's endpoints, in either order."""
    ends = (g.e1.theta, g.e2.theta)
    return any(all(angle_distance(t, e) <= tol for t, e in zip(angles, order))
               for order in (ends, ends[::-1]))


def test_disk_point_rejects_boundary():
    with pytest.raises(InvalidInput):
        DiskPoint(1.0)
    with pytest.raises(InvalidInput):
        DiskPoint(0.8 + 0.7j)
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)):
        with pytest.raises(InvalidInput):
            DiskPoint(z)
    DiskPoint(0.999999)


def test_ideal_point_angle_reduction():
    assert IdealPoint(2.0 * math.pi).theta == 0.0
    assert IdealPoint(-0.5).theta == pytest.approx(2.0 * math.pi - 0.5)
    assert angle_distance(IdealPoint(7.0).theta, 7.0 - 2.0 * math.pi) <= TOL_ANGLE
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


@st.composite
def clustered_angles(draw):
    """Angles in [0, 2*pi) bunched into clusters whose steps are near
    TOL_ANGLE, so runs of close angles can be wider than TOL_ANGLE; some
    clusters sit at 0 and straddle the wraparound."""
    centers = draw(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
                  st.sampled_from([0.0, 1e-10, TWO_PI - 1e-10])),
        min_size=1, max_size=8))
    step = draw(st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.1])) * TOL_ANGLE
    angles = [c + k * step for c in centers
              for k in draw(st.lists(st.integers(-4, 6), min_size=1, max_size=12))]
    return reduce_angle(np.array(angles))


def test_angle_distance_takes_arrays():
    t1, t2 = np.array([0.1, 6.2, 3.0]), np.array([6.2, 0.1, -3.0])
    assert angle_distance(t1, t2).tolist() == [angle_distance(a, b) for a, b in zip(t1, t2)]


@given(clustered_angles())
def test_circle_net_is_a_tol_angle_net(theta):
    kept = circle_net(theta)
    assert len(set(kept.tolist())) == len(kept)
    net = theta[kept]
    # of equal angles, the first in input order is kept
    first = {}
    for i, t in enumerate(theta.tolist()):
        first.setdefault(t, i)
    assert kept.tolist() == [first[t] for t in net.tolist()]
    # kept angles strictly increase, and kept neighbours, wraparound
    # included, are more than TOL_ANGLE apart
    assert np.all(np.diff(net) > TOL_ANGLE)
    assert len(net) == 1 or net[0] + TWO_PI - net[-1] > TOL_ANGLE
    # every angle is within TOL_ANGLE after a kept one (net[0] is the
    # least angle), or within TOL_ANGLE before the first + 2*pi
    before = net[np.searchsorted(net, theta, side="right") - 1]
    assert np.all((theta - before <= TOL_ANGLE) | (net[0] + TWO_PI - theta <= TOL_ANGLE))


def test_circle_net_matches_the_walk_back_oracle():
    rng = np.random.default_rng(12)
    centers = rng.uniform(0.0, TWO_PI, 60)
    centers[:3] = (0.0, 2e-10, TWO_PI - 3e-10)
    theta = reduce_angle(np.repeat(centers, 30) + rng.integers(-3, 8, 1800) * 3e-10)
    kept = circle_net(theta)
    assert kept.dtype == np.intp
    assert kept.tolist() == oracles.circle_net(theta).tolist()
    # runs wider than TOL_ANGLE keep more than their first angle, and a
    # kept angle near 2*pi folds into the first
    runs = 1 + np.count_nonzero(np.diff(np.sort(theta)) > TOL_ANGLE)
    assert len(kept) > runs
    # (an angle beyond TOL_ANGLE past the last kept one is covered by the fold)
    assert np.any(theta > theta[kept[-1]] + TOL_ANGLE)


@st.composite
def tied_angles(draw):
    """`clustered_angles` plus +-0.0 and angles within TOL_ANGLE below
    2*pi, each repeated 1 to 5 times exactly (runs of 2 and of 3 or more
    equal angles), in shuffled input order."""
    distinct = draw(clustered_angles()).tolist() + draw(st.lists(st.sampled_from(
        [0.0, -0.0, TWO_PI - 0.5 * TOL_ANGLE, math.nextafter(TWO_PI, 0.0)]), max_size=4))
    copies = draw(st.lists(st.integers(1, 5), min_size=len(distinct), max_size=len(distinct)))
    return np.array(draw(st.permutations([t for t, k in zip(distinct, copies)
                                          for _ in range(k)])))


@given(tied_angles())
def test_circle_net_keeps_the_stable_sorts_indices(theta):
    kept = circle_net(theta)
    assert kept.dtype == np.intp
    assert kept.tolist() == oracles.stable_circle_net(theta).tolist()


def test_circle_net_keeps_the_stable_sorts_indices_on_many_ties():
    # large enough for the sort's vectorized kernels, which leave runs of
    # equal angles in any order
    rng = np.random.default_rng(21)
    distinct = np.concatenate([rng.uniform(0.0, TWO_PI, 20_000),
                               rng.uniform(3.0, 3.0 + 500 * TOL_ANGLE, 20_000),
                               [0.0, -0.0, TWO_PI - 0.5 * TOL_ANGLE]])
    theta = rng.permutation(np.repeat(distinct, rng.integers(1, 6, len(distinct))))
    assert circle_net(theta).tolist() == oracles.stable_circle_net(theta).tolist()


@st.composite
def sectored_angles(draw):
    """Angles and the cuts of their sectors, on a background of clustered
    angles: a run of angles 0.9 TOL_ANGLE apart laid across a cut, exact
    ties on both sides of a cut, kept angles within TOL_ANGLE below 2*pi
    that fold into the first angle 0, cuts with no angle between them, or
    one angle repeated; in shuffled input order."""
    cuts = sorted(draw(st.lists(st.floats(0.1, TWO_PI - 0.1), min_size=1, max_size=6)))
    cut = draw(st.sampled_from(cuts))
    kind = draw(st.sampled_from(["run", "ties", "fold", "empty", "equal"]))
    theta = draw(clustered_angles()).tolist() + [draw(st.floats(0.0, TWO_PI, exclude_max=True))
                                                 for _ in range(len(cuts) + 1)]
    if kind == "run":
        k = draw(st.integers(2, 12))
        theta += [cut + (i - k // 2) * 0.9 * TOL_ANGLE for i in range(k)]
    elif kind == "ties":
        d = draw(st.floats(2 * TOL_ANGLE, 1e-3))
        theta += [cut - d] * draw(st.integers(2, 4)) + [cut + d] * draw(st.integers(2, 4))
        theta += [cut] * draw(st.integers(0, 3))
    elif kind == "fold":
        theta += [0.0] + [TWO_PI - u * TOL_ANGLE for u in draw(st.lists(
            st.sampled_from([1.0, 0.6, 0.3, 1e-6]), min_size=1, max_size=4))]
        theta += [math.nextafter(TWO_PI, 0.0)]
    elif kind == "empty":
        cuts = sorted(cuts + [cut, cut, math.nextafter(cut, TWO_PI)])
    else:
        theta = [theta[0]] * draw(st.integers(len(cuts) + 1, 30))
    return np.array(draw(st.permutations(theta))), np.array(cuts), kind


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sectored_angles())
def test_sectored_circle_net_is_the_one_sector_net(sized_pool, monkeypatch, data):
    theta, cuts, kind = data
    one = circle_net(theta)
    whole = []
    sector_net = disk._sector_net

    def spy(theta, index, first, take):
        whole.append(index is None)
        return sector_net(theta, index, first, take)

    # one sector per cut and one more, or fewer cuts where the angles are
    # fewer; a sector past the last cut stays empty
    size = max(1, len(theta) // (len(cuts) + 2))
    cuts = cuts[:len(theta) // size - 2]
    with monkeypatch.context() as patch:
        patch.setattr(disk, "_SECTOR_MIN", size)
        patch.setattr(disk, "_sector_cuts", lambda theta, count: cuts)
        patch.setattr(disk, "_sector_net", spy)
        sectored = circle_net(theta)
        taken = circle_net(theta, lambda kept, angles: (kept, angles))
    assert sectored.tolist() == one.tolist() == oracles.circle_net(theta).tolist()
    kept, angles = map(np.concatenate, zip(*taken))
    assert kept.tolist() == one.tolist()
    assert angles.tobytes() == theta[one].tobytes()
    # a run across a cut, as there always is in a "run", takes the whole
    # array as one sector; all angles equal fill one sector and no other
    t = np.sort(theta)
    crossing = np.any((np.diff(t) <= TOL_ANGLE) & (np.diff(np.searchsorted(cuts, t, "right")) > 0))
    assert crossing or kind != "run"
    assert whole.count(True) == 2 * crossing
    if kind == "equal":
        assert whole == [False, False]


def test_sector_cuts_sit_in_the_widest_sample_gaps():
    # 32 sample angles per sector; in each stretch of the sample around a
    # quantile the widest gap holds the cut at its midpoint
    theta = np.linspace(0.0, 6.0, 64 * 32, endpoint=False)
    theta[32 * 16 + 7] += 0.001  # widens the gap before it, in the 16th cut's stretch
    cuts = disk._sector_cuts(theta, 64)
    sample = np.sort(theta)
    assert len(cuts) == 63 and np.all(np.diff(cuts) >= 0.0)
    assert cuts[15] == 0.5 * (sample[32 * 16 + 6] + sample[32 * 16 + 7])
    for c in cuts:
        i = np.searchsorted(sample, c)
        assert sample[i - 1] < c < sample[i] and c == 0.5 * (sample[i - 1] + sample[i])


@pytest.mark.parametrize("size, sectors", [(156_864, 1), (177_184, 1), (3 * 2**16, 2),
                                           (225_000, 2), (1_921_648, 28)])
def test_the_sector_count_follows_the_input_size(monkeypatch, size, sectors):
    # one sector fewer than the input holds _SECTOR_MIN angles, and one
    # sector, on the caller, below three times _SECTOR_MIN: octagon orbit
    # n = 6 and Schottky n = 10 (156,864 and 177,184 angles) are one sector,
    # octagon axes n = 7 (1,921,648) is 28
    counts = []

    def cuts(theta, count):
        counts.append(count)
        return np.linspace(0.0, TWO_PI, count + 1)[1:-1]

    monkeypatch.setattr(disk, "_sector_cuts", cuts)
    monkeypatch.setattr(disk, "_sector_net", lambda theta, index, first, take: (0.0, 0.0, index))
    circle_net(np.zeros(size))
    assert counts == ([] if sectors == 1 else [sectors])


def test_a_large_input_is_netted_in_sectors(monkeypatch):
    # three times _SECTOR_MIN angles and more: the net runs in sectors, and
    # equals the one-sector net index for index
    rng = np.random.default_rng(8)
    theta = reduce_angle(np.repeat(rng.uniform(0.0, TWO_PI, 45_000), 5)
                         + rng.integers(-3, 8, 225_000) * 3e-10)
    theta[:3] = (0.0, TWO_PI - 3e-10, TWO_PI - 2e-9)
    sizes = []
    sector_net = disk._sector_net

    def spy(theta, index, *rest):
        sizes.append(len(theta if index is None else index))
        return sector_net(theta, index, *rest)

    monkeypatch.setattr(disk, "_sector_net", spy)
    kept = circle_net(theta)
    assert len(sizes) == len(theta) // disk._SECTOR_MIN - 1 > 1 and sum(sizes) == len(theta)
    assert kept.tolist() == oracles.circle_net(theta).tolist()


def test_circle_angle_is_reduce_angle_of_the_angle_bit_for_bit():
    rng = np.random.default_rng(5)
    edge = [complex(1, -0.0), complex(-1, -0.0), -0j, complex(1, -5e-324), complex(1, -1e-17)]
    z = np.concatenate([rng.normal(size=100_000) + 1j * rng.normal(size=100_000), edge])
    got = circle_angle(z)
    assert got.view(np.uint64).tolist() == reduce_angle(np.angle(z)).view(np.uint64).tolist()
    # -0.0 becomes +0.0, and at 1 - 1e-17 i the sum with 2*pi rounds to 2*pi
    assert got[-5:].view(np.uint64).tolist() == np.array(
        [0.0, math.pi, math.pi, 0.0, 0.0]).view(np.uint64).tolist()


def test_circle_net_at_a_sum_that_rounds_up():
    # base + TOL_ANGLE rounds up to an angle more than TOL_ANGLE past base,
    # which is kept; searchsorted alone would keep the angle after it
    base = 4.000119396378733
    edge = base + TOL_ANGLE
    assert edge - base > TOL_ANGLE
    theta = np.array([base, base + 0.5 * TOL_ANGLE, edge, edge, edge + 0.5 * TOL_ANGLE])
    assert circle_net(theta).tolist() == [0, 2]


def test_circle_net_collides_with_the_last_kept_angle():
    # 0.6e-9 collides with 0; 1.2e-9 is within TOL_ANGLE of 0.6e-9 but
    # not of 0, the last kept angle, so it stays
    theta = np.array([1.0, 1.2e-9, 0.6e-9, 0.0])
    assert circle_net(theta).tolist() == [3, 1, 0]


def test_circle_net_wraparound_and_stable_ties():
    # 2*pi - 4e-10 and 2*pi - 1e-10 fold into 1e-10; of the two equal
    # angles 3.0, the first in input order is kept
    theta = np.array([TWO_PI - 4e-10, 3.0, 1e-10, TWO_PI - 1e-10, 3.0])
    assert circle_net(theta).tolist() == [2, 1]


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
    assert angle_distance(apply(m, q).theta, q.theta) <= TOL_ANGLE


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
            rotation(rng.uniform(0, 6.2))
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


# 1000: the squares of the entries overflow a float, 1500: the entries
# themselves; both once raised a bare OverflowError.  1419.5 off the
# diameter: the entries' moduli overflow although their parts do not
@pytest.mark.parametrize("length", [80.0, 1000.0, 1419.5, 1500.0, 1e300])
def test_giant_translation_overflows_as_numeric_failure(length):
    for ends in ((0.0, math.pi), (0.0, 1.0)):
        with pytest.raises(NumericFailure):
            translation_along(Geodesic(IdealPoint(ends[0]), IdealPoint(ends[1])), length)
    with pytest.raises(NumericFailure, match="^entries too large"):
        MobiusIsometry(1e200, 1e200)


# max(nan, 1e30) is nan but max(1e30, nan) is 1e30: a NaN part must not
# reach the size rule
@pytest.mark.parametrize("a, b", [
    (math.nan, 1e30), (1e30, math.nan), (math.nan, 0.5), (0.5, math.nan),
    (complex(1, math.nan), 0.0), (0.0, complex(1, math.nan)),
])
def test_a_nan_entry_is_invalid_in_either_place(a, b):
    with pytest.raises(InvalidInput,
                       match=r"^not conjugate to an SU\(1,1\) matrix: \|a\|\^2-\|b\|\^2 = nan$"):
        MobiusIsometry(a, b)


@pytest.mark.parametrize("a, b", [(math.inf, 0.0), (0.0, math.inf), (math.inf, 0.5)])
def test_an_infinite_entry_is_a_numeric_failure(a, b):
    with pytest.raises(NumericFailure, match="^entries too large to certify"):
        MobiusIsometry(a, b)


def test_a_translation_builds_below_the_certified_size_or_raises():
    # lengths 1 to 711.75 on four geodesics.  A translation by t has
    # Re a = cosh(t/2), so none builds from 2 acosh(2**26) (about 37.43)
    # on; once 252 of these built with |a| past 2**26 by rounding luck,
    # up to about 2**511
    limit = 2.0 * math.acosh(MAX_CERTIFIED_ENTRY)
    for ends in ((0.6, 2.6), (3.9, 5.9), (0.3, 2.0), (0.0, math.pi)):
        g = Geodesic(IdealPoint(ends[0]), IdealPoint(ends[1]))
        for length in np.arange(4, 2848) / 4:
            try:
                m = translation_along(g, float(length))
            except NumericFailure:
                assert length > 30.0  # every shorter one builds
                continue
            assert length < limit
            assert max(abs(m.a), abs(m.b)) < MAX_CERTIFIED_ENTRY


def test_classify_rotation_elliptic():
    m = MobiusIsometry(cmath.exp(1j * math.pi / 6), 0.0)  # rotation by pi/3
    assert not hyperbolic(m)


def test_classify_translation_hyperbolic_with_fixed_points():
    m = MobiusIsometry(math.cosh(1.0), math.sinh(1.0))
    assert hyperbolic(m)
    # by-hand oracle: roots of conj(b) z^2 + (conj(a)-a) z - b on |z|=1
    roots = np.roots([m.b.conjugate(), m.a.conjugate() - m.a, -m.b])
    angles = sorted(float(np.angle(z)) % (2 * math.pi) for z in roots)
    got = sorted(fixed_angles(m))
    assert got == pytest.approx(angles, abs=1e-12)
    assert got == pytest.approx([0.0, math.pi], abs=1e-12)


def test_classify_parabolic_single_fixed_point():
    m = MobiusIsometry(1 + 0.7j, 0.7j)  # |a|^2 - |b|^2 = 1 + .49 - .49
    # discriminant-zero oracle: one double fixed point, so not hyperbolic
    disc = (m.a.conjugate() - m.a) ** 2 + 4 * abs(m.b) ** 2
    assert abs(disc) < 1e-12
    assert not hyperbolic(m)


def test_classify_identity_both_signs():
    assert not hyperbolic(MobiusIsometry(1.0, 0.0))
    assert not hyperbolic(MobiusIsometry(-1.0, 0.0))


def test_classify_ambiguous_band_surfaces():
    # rotation by 1e-7: |Re a| is within 1e-14 of 1, and the guard still
    # does not certify it
    assert not hyperbolic(MobiusIsometry(cmath.exp(0.5e-7j), 0.0))


@given(isometries(), isometries())
def test_classify_conjugation_invariant(g, m):
    conj = g.compose(m).compose(g.inverse())
    # |Re a| is a conjugation invariant; the guard is decided by it
    assert abs(conj.a.real) == pytest.approx(abs(m.a.real), rel=1e-9)
    if abs(abs(m.a.real) - 1.0) > 1e-6:
        assert hyperbolic(conj) == hyperbolic(m) == (abs(m.a.real) > 1.0)


def test_fixed_points_attracting_first_by_iteration():
    t = 0.8
    m = MobiusIsometry(math.cosh(t / 2), math.sinh(t / 2))
    att = fixed_angles(m)[0]
    z = DiskPoint(0.1 + 0.2j)
    for _ in range(200):
        z = apply(m, z)
    assert angle_distance(cmath.phase(z.z), att) < 1e-6


def test_attraction_for_generic_translations():
    rng = random.Random(5)
    for _ in range(10):
        g = Geodesic(IdealPoint(rng.uniform(0, 6.2)), IdealPoint(rng.uniform(0, 6.2) + 1.0))
        m = translation_along(g, rng.uniform(0.1, 2.0))
        att = fixed_angles(m)[0]
        z = DiskPoint(0)
        for _ in range(200):
            try:
                z = apply(m, z)
            except NumericFailure:
                break  # the orbit rounded onto the circle: converged
        assert angle_distance(cmath.phase(z.z), att) < 1e-6


def test_axis_translation_canonical():
    m = MobiusIsometry(math.cosh(0.5), math.sinh(0.5))
    assert same_endpoints(fixed_angles(m), Geodesic(IdealPoint(0), IdealPoint(math.pi)), 1e-12)


def test_axis_equivariance_under_conjugation():
    m = translation_along(Geodesic(IdealPoint(0.4), IdealPoint(2.2)), 1.1)
    g = translation_along(Geodesic(IdealPoint(1.0), IdealPoint(4.0)), 0.7).compose(
        rotation(0.9)
    )
    conj = g.compose(m).compose(g.inverse())
    expected = Geodesic(*(apply(g, IdealPoint(t)) for t in fixed_angles(m)))
    assert same_endpoints(fixed_angles(conj), expected, 1e-9)


def test_axis_shared_by_powers():
    m = translation_along(Geodesic(IdealPoint(0.4), IdealPoint(2.2)), 0.9)
    axis = Geodesic(*map(IdealPoint, fixed_angles(m)))
    assert same_endpoints(fixed_angles(m.compose(m)), axis, 1e-9)


def test_geodesic_through_coincident_points():
    with pytest.raises(CoincidentPoints):
        Geodesic(IdealPoint(1.0), IdealPoint(1.0 + 1e-12))
    with pytest.raises(CoincidentPoints):  # across the wraparound
        Geodesic(IdealPoint(0.0), IdealPoint(2.0 * math.pi - 1e-12))


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
    r = rotation(phi)
    canon = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), t)
    expected = r.compose(canon).compose(r.inverse())
    assert abs(m.a - expected.a) < 1e-12 and abs(m.b - expected.b) < 1e-12


@given(geodesics(), st.floats(min_value=0.1, max_value=4.0))
def test_translation_along_axis_and_length(g, t):
    m = translation_along(g, t)
    assert hyperbolic(m)
    # toward e1: the attracting fixed point comes first
    assert [angle_distance(x, e.theta) for x, e in zip(fixed_angles(m), (g.e1, g.e2))] \
        == pytest.approx([0.0, 0.0], abs=1e-9)
    # the translation length is 2 acosh |Re a|; the square doubles it
    assert 2.0 * math.acosh(abs(m.a.real)) == pytest.approx(t, abs=1e-9)
    assert 2.0 * math.acosh(abs(m.compose(m).a.real)) == pytest.approx(2 * t, abs=1e-9)


def test_translation_along_rejects_nonpositive_length():
    g = Geodesic(IdealPoint(0), IdealPoint(math.pi))
    with pytest.raises(NonpositiveLength):
        translation_along(g, 0.0)
    with pytest.raises(NonpositiveLength):
        translation_along(g, -1.0)


@given(geodesics(), st.floats(min_value=0.1, max_value=3.0), disk_points())
def test_half_plane_membership_invariant_under_boundary_fixing(g, t, p):
    def side(z):
        # Im[(z - u)/(z - v)] vanishes exactly on the circle through the
        # endpoints u, v and has one sign on each side of it
        s = ((z - g.e1.z) / (z - g.e2.z)).imag
        return 0 if abs(s) <= 1e-12 else math.copysign(1, s)

    m = translation_along(g, t)  # fixes the boundary geodesic and its sides
    assert side(p.z) == side(apply(m, p).z)


def test_su11_normalization_enforced():
    m = MobiusIsometry(2.0 * math.cosh(0.3), 2.0 * math.sinh(0.3))
    assert abs(abs(m.a) ** 2 - abs(m.b) ** 2 - 1.0) < 1e-12
    with pytest.raises(InvalidInput):
        MobiusIsometry(0.5, 1.0)  # |a| < |b| is not a disk isometry

