import cmath
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from hypsurf import boundary, groups, pool
from hypsurf.disk import (
    DiskPoint,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    angle_distance,
    apply,
    circle_angle,
    circle_fixed_points,
    circle_net,
    is_certainly_hyperbolic,
    reduce_angle,
    translation_along,
)
from hypsurf.errors import (
    BudgetExceeded,
    CirclesOverlap,
    EmptySample,
    IndexOutOfRange,
    InvalidInput,
)
from hypsurf.groups import (
    OCTAGON_RELATOR,
    EndpointSample,
    GroupRep,
    SampleMode,
    attracting_angle,
    attracting_angles,
    cusped_torus_group,
    evaluate,
    gap_profile,
    limit_sample,
    max_angular_gap,
    octagon_group,
    schottky_rank2,
)
from hypsurf.boundary import FreeAutomorphism, conjugacy_class_words, induced_boundary_sample
from hypsurf.text import endpoint_json
from hypsurf.words import (
    GroupWord,
    _letter_key,
    enumerate_reduced_words,
    stack_padded,
    substitute,
    substitute_rows,
    word_count,
    word_table,
)

import oracles

W = GroupWord.from_string


def letter_matrix(words) -> np.ndarray:
    out = np.zeros((len(words), max((len(w) for w in words), default=0)), dtype=np.int8)
    for i, w in enumerate(words):
        out[i, : len(w)] = w.letters
    return out


def _entry_residual(m1, m2):
    return max(abs(m1.a - m2.a), abs(m1.b - m2.b))


def test_rep_validates_relators():
    t = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 1.0)
    with pytest.raises(InvalidInput):
        GroupRep((t,), relators=(W("AA"),))  # t^2 is not the identity
    GroupRep((t,), relators=())


def test_rep_needs_generators():
    with pytest.raises(InvalidInput):
        GroupRep(())


def test_evaluate_identity_and_inverse(octagon):
    assert evaluate(octagon, GroupWord()) == MobiusIsometry.identity()
    w = W("AbCd")
    m = evaluate(octagon, w).compose(evaluate(octagon, w.inverse()))
    assert abs(m.b) <= 1e-10 and abs(m.a - 1.0) <= 1e-10


def test_evaluate_homomorphism_200_random_pairs(octagon):
    # absolute 1e-9 where entries stay small; relative 1e-9 in general
    # (renormalization noise scales with the squared entry size)
    rng = random.Random(17)
    words = enumerate_reduced_words(octagon.rank, 3)
    for _ in range(200):
        u = rng.choice(words)
        v = rng.choice(words)
        lhs = evaluate(octagon, u * v)
        rhs = evaluate(octagon, u).compose(evaluate(octagon, v))
        residual = _entry_residual(lhs, rhs)
        assert residual / max(1.0, abs(lhs.a)) < 1e-9
        if len(u) + len(v) <= 4:
            assert residual < 1e-9


def test_evaluate_index_out_of_range(cusped_torus):
    with pytest.raises(IndexOutOfRange):
        evaluate(cusped_torus, W("C"))


def test_letter_isometry_rejects_zero(cusped_torus):
    # index -1 once read the last generator and returned its inverse
    with pytest.raises(InvalidInput, match="^0 is not a letter$"):
        cusped_torus.letter_isometry(0)
    with pytest.raises(IndexOutOfRange):
        cusped_torus.letter_isometry(-3)


def test_enumerate_words_counts(octagon, cusped_torus):
    # the groups' word lists come from enumerate_reduced_words over their rank
    assert len(enumerate_reduced_words(cusped_torus.rank, 1)) == 5  # identity + 4
    exactly2 = [w for w in enumerate_reduced_words(cusped_torus.rank, 2) if len(w) == 2]
    assert len(exactly2) == 12
    assert len(enumerate_reduced_words(octagon.rank, 0)) == 1
    for n in range(4):
        assert len(enumerate_reduced_words(octagon.rank, n)) == word_count(4, n)
    with pytest.raises(BudgetExceeded):
        enumerate_reduced_words(octagon.rank, 8)


def origin_images(rep, n):
    """(word, image of the origin) for every row of the word table of
    length <= n, in shortlex order; the table's matrices are known up to a
    positive scale, which the action ignores."""
    return [
        (GroupWord.from_row(row), complex(b / np.conj(a)))
        for level in oracles.word_levels(rep, n)
        for row, a, b in zip(level.letters, level.a, level.b)
    ]


def test_orbit_single_generator_marches_to_axis_ends():
    t = 1.0
    g = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), t)
    rep = GroupRep((g,))
    images = origin_images(rep, 10)
    assert len(images) == 20  # A^[1..10] + a^[1..10]
    # matrix-iteration oracle for every point
    for w, z in images:
        m = MobiusIsometry.identity()
        for letter in w.letters:
            m = m.compose(g if letter > 0 else g.inverse())
        assert abs(apply(m, DiskPoint(0)).z - z) < 1e-12
    # the extremes approach the two axis endpoints
    pts = sorted(z.real for _, z in images)
    assert pts[0] < -0.99 and pts[-1] > 0.99


def test_orbit_count_matches_word_count(octagon):
    images = origin_images(octagon, 3)
    assert 1 + len(images) == word_count(4, 3)  # the table has no identity row
    assert all(abs(z) < 1.0 for _, z in images)
    # every word's matrix, carried from its parent row, against evaluate
    assert [GroupWord()] + [w for w, _ in images] == enumerate_reduced_words(4, 3)
    for w, z in images:
        assert abs(apply(evaluate(octagon, w), DiskPoint(0)).z - z) < 1e-12


def test_limit_sample_single_generator_axis_mode():
    g = translation_along(Geodesic(IdealPoint(1.0), IdealPoint(1.0 + math.pi)), 2.0)
    rep = GroupRep((g,))
    s = limit_sample(rep, DiskPoint(0), 5, SampleMode.AXIS_ENDPOINTS)
    assert len(s) == 2
    assert sorted(s.angles) == pytest.approx([1.0, 1.0 + math.pi], abs=1e-9)


def test_limit_sample_axis_size_strictly_increases(octagon):
    sizes = []
    for n in (1, 2, 3, 4):
        s = limit_sample(octagon, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS)
        assert np.all(np.diff(s.angles) > 0)  # strictly increasing after dedup
        assert s.angles[0] >= 0 and s.angles[-1] < 2 * math.pi
        sizes.append(len(s))
    assert sizes == sorted(sizes) and len(set(sizes)) == 4


def _axis_endpoints(rep, n):
    s = limit_sample(rep, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS)
    return s.angles, ()


def _boundary_map(spec):
    def sample(rep, n):
        # the hyperbolic entries `induced_boundary_sample` takes the net of
        phi = FreeAutomorphism.from_spec(spec, rank=rep.rank)
        classes = conjugacy_class_words(rep.rank, n)
        tin = attracting_angles(rep, classes)
        tout = attracting_angles(rep, substitute_rows(phi.images, classes))
        ok = ~(np.isnan(tin) | np.isnan(tout))
        s = induced_boundary_sample(rep, phi, n)
        return s.theta_in, ((s.theta_in, tin[ok]), (s.theta_out, tout[ok]),
                            (s.letters, classes[ok]))
    return sample


@pytest.mark.parametrize("make_group, sample, ns, rows", [
    # the chain rule this replaced kept 1,868 rows here, leaving 6,424
    # endpoints farther than TOL_ANGLE from every kept one
    pytest.param(lambda: schottky_rank2(4.0), _axis_endpoints, (9,), 2188, id="schottky4-n9"),
    pytest.param(octagon_group, _axis_endpoints, (4,), 2736, id="octagon-n4"),
    # the four boundary-verdict inputs of the benchmark
    pytest.param(cusped_torus_group, _boundary_map("A=AB,B=B"), (9,), None,
                 id="torus-twist-n9"),
    pytest.param(cusped_torus_group, _boundary_map("A=A,B=B"), (8,), None,
                 id="torus-identity-n8"),
    pytest.param(octagon_group, _boundary_map("A=A,B=ABa,C=ACa,D=ADa"), (5,), None,
                 id="octagon-inner-a-n5"),
    pytest.param(lambda: schottky_rank2(2.0), _boundary_map("A=AB,B=B"), (8,), None,
                 id="schottky2-twist-n8"),
    # saturated Schottky samples: long clusters of theta_in within TOL_ANGLE
    *(pytest.param(lambda sep=sep: schottky_rank2(sep), _boundary_map(spec), range(1, 10), None,
                   id=f"schottky{sep:g}-{spec}-n1to9")
      for sep in (6.0, 10.0) for spec in ("A=AB,B=B", "A=A,B=B")),
])
def test_limit_sample_is_the_net_of_its_endpoints(make_group, sample, ns, rows, monkeypatch):
    # `limit_sample` and `induced_boundary_sample` keep the walk-back
    # oracle's net of their angles, and index every aligned array by it
    seen = []

    def traced(theta, take=None):
        seen.append((theta.copy(), circle_net(theta)))
        net = seen[-1][1]
        return net if take is None else [take(net, theta[net])]

    monkeypatch.setattr(groups, "circle_net", traced)
    monkeypatch.setattr(boundary, "circle_net", traced)
    rep = make_group()
    for n in ns:
        angles, aligned = sample(rep, n)
        [(theta, net)] = seen
        seen.clear()
        assert net.tolist() == oracles.circle_net(theta).tolist(), n
        assert angles.tobytes() == theta[net].tobytes()
        for kept, entries in aligned:
            kept_entries = entries[net]
            assert kept.dtype == kept_entries.dtype and kept.shape == kept_entries.shape
            assert kept.tobytes() == kept_entries.tobytes(), n
    if rows is not None:
        assert len(angles) == rows


@pytest.mark.parametrize("make_group, n, mode, base", [
    pytest.param(octagon_group, 5, SampleMode.AXIS_ENDPOINTS, 0, id="octagon-axes-n5"),
    pytest.param(lambda: schottky_rank2(4.0), 10, SampleMode.AXIS_ENDPOINTS, 0,
                 id="schottky4-axes-n10"),
    pytest.param(cusped_torus_group, 8, SampleMode.AXIS_ENDPOINTS, 0, id="torus-axes-n8"),
    pytest.param(octagon_group, 4, SampleMode.ORBIT_PROJECTION, 0.3 + 0.2j,
                 id="octagon-orbit-base-inside"),
    pytest.param(octagon_group, 4, SampleMode.ORBIT_PROJECTION, 0.9,
                 id="octagon-orbit-base-outside"),
    pytest.param(cusped_torus_group, 6, SampleMode.ORBIT_PROJECTION, -0.5 - 0.7j,
                 id="torus-orbit-base-outside"),
    # rank 1: a frontier of fan 2 (the alphabet) at n=1, of fan 1 after it
    *[pytest.param(lambda: _translations(1), n, mode, 0.5, id=f"rank1-{mode.value}-n{n}")
      for n in (1, 2, 5) for mode in SampleMode],
])
def test_limit_sample_matches_the_letter_gathering_oracle(make_group, n, mode, base):
    # the word of each endpoint is fetched by its row in one table, where
    # the oracle gathers letter rows by mask and stacks them
    rep, point = make_group(), DiskPoint(base)
    s, ref = limit_sample(rep, point, n, mode), oracles.limit_sample(rep, point, n, mode)
    assert np.array_equal(s.angles, ref.angles) and s.angles.tobytes() == ref.angles.tobytes()
    assert np.array_equal(s.letters, ref.letters)
    assert s.letters.dtype == np.int8 and s.letters.shape == (len(s), n)
    # past 1 - delta the base point is an endpoint, and row 0, the empty word, its word
    if mode is SampleMode.ORBIT_PROJECTION and abs(base) > 1.0 - groups.DEFAULT_DELTA:
        assert not s.letters.any(axis=1).all()


def test_circle_net_keeps_the_stable_sorts_indices_on_real_ties():
    # the axis endpoints of Schottky(4) at n=10 before the net: tens of
    # thousands of neighbours in sorted order are exactly equal.  How many
    # depends on numpy's SIMD level: 60,886 with AVX-512 loops, 60,854
    # without them and 60,338 without AVX2 too
    theta, _, _ = groups._endpoint_rows(schottky_rank2(4.0), DiskPoint(0), 10,
                                         SampleMode.AXIS_ENDPOINTS, groups.DEFAULT_DELTA)
    assert np.count_nonzero(np.diff(np.sort(theta)) == 0.0) > 50_000
    assert circle_net(theta).tolist() == oracles.stable_circle_net(theta).tolist()


def _in_pieces(path, count, size):
    """`path` over consecutive row slices of `size`, its outputs joined."""
    parts = [path(slice(lo, lo + size)) for lo in range(0, count, size)]
    return [np.concatenate(out) for out in zip(*parts)]


@pytest.mark.parametrize("make_group, n", [
    pytest.param(octagon_group, 6, id="octagon-n6"),  # 134,456 rows of length 6
    pytest.param(lambda: schottky_rank2(4.0), 10, id="schottky4-n10"),  # 78,732
    pytest.param(cusped_torus_group, 10, id="torus-n10"),
])
def test_a_rows_value_does_not_depend_on_the_array_it_is_in(make_group, n):
    # from 16,384 elements numpy elides a temporary into an in-place product
    # with swapped operands, which FMA rounds apart; each path must give a
    # row the same bits whole, in chunks of a size that divides no row
    # count, and alone
    rep = make_group()
    *_, parents, level = oracles.word_levels(rep, n)
    count = len(level.letters)
    assert count > 16_384
    fan = 2 * rep.rank - 1
    la, lb = groups._letter_matrices(rep)
    key = _letter_key(level.letters[:, -1].astype(np.intp))
    pa, pb = np.repeat(parents.a, fan), np.repeat(parents.b, fan)

    def products(rows):
        return groups._compose_rows(pa[rows], pb[rows], la[key[rows]], lb[key[rows]])

    def endpoints(rows):
        # the axis endpoint chain of `limit_sample`
        a, b = level.a[rows], level.b[rows]
        ok = is_certainly_hyperbolic(a, b)
        out = np.full((2, len(a)), np.nan)
        for side, z in zip(out, circle_fixed_points(a[ok], b[ok])):
            side[ok] = circle_angle(z)
        return ok, *out

    def attracting(rows):
        return (attracting_angles(rep, level.letters[rows]),)

    # the table's last level, built in blocks, is the whole product
    assert [x.tobytes() for x in products(slice(None))] == [level.a.tobytes(),
                                                             level.b.tobytes()]
    alone = np.arange(0, count, 997)
    for path in (products, endpoints, attracting):
        whole = path(slice(None))
        chunked = _in_pieces(path, count, 1001)
        assert [x.tobytes() for x in chunked] == [x.tobytes() for x in whole], path.__name__
        for i in alone:
            assert [x.tobytes() for x in path(slice(i, i + 1))] == \
                [x[i:i + 1].tobytes() for x in whole], (path.__name__, i)


def _translations(rank: int) -> GroupRep:
    """A group of rank translations along diameters at distinct angles."""
    return GroupRep(tuple(
        translation_along(Geodesic(IdealPoint(k * math.pi / rank),
                                   IdealPoint(k * math.pi / rank + math.pi)), 2.0)
        for k in range(rank)))


@pytest.mark.parametrize("rank, n", [(1, 9), (2, 1), (2, 6), (3, 4), (4, 4)])
@pytest.mark.parametrize("rows", [9, 2])
def test_frontier_blocks_build_the_last_level_of_letters(rank, n, rows, monkeypatch,
                                                         sized_pool):
    # each frontier block grows its letter rows from its parent rows, in
    # place in the padded word table: blocks of the children of
    # BLOCK_ROWS // fan parents, or of one parent where BLOCK_ROWS is below
    # the fan, give the table's last level across every block boundary
    monkeypatch.setattr(pool, "BLOCK_ROWS", rows)
    parents = max(1, rows // (2 * rank - 1))
    words = word_table(rank, n)
    blocks = [b.letters for b in groups._word_blocks(_translations(rank), words)]
    levels = oracles.shortlex_levels(rank, n)
    frontier = [b for b in blocks if b.shape[1] == n]
    assert len(frontier) == (1 if n == 1 else -(-len(levels[-2]) // parents))
    assert np.array_equal(np.concatenate(frontier), levels[-1])
    # every level is grown in place, in its rows of the table
    assert all(np.shares_memory(b, words) for b in blocks)
    assert np.array_equal(words, stack_padded([np.zeros((1, 0), dtype=np.int8)] + levels, n))


def _mixed_group():
    # one short and one long translation: at n = 11 only some rows of the
    # last level pass _RESCALE_AT
    return GroupRep((
        translation_along(Geodesic(IdealPoint(0.0), IdealPoint(math.pi)), 1.0),
        translation_along(Geodesic(IdealPoint(math.pi / 2), IdealPoint(3 * math.pi / 2)), 34.0),
    ))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("make_group", [
    octagon_group, lambda: schottky_rank2(4.0), cusped_torus_group, _mixed_group,
], ids=["octagon", "schottky4", "cusped-torus", "mixed"])
def test_level_one_carries_the_letters_own_matrices(make_group, n):
    # a product with the identity would turn the -0.0 imaginary parts of
    # the inverse letters into +0.0: values equal, bits not
    rep = make_group()
    level = next(groups._word_blocks(rep, word_table(rep.rank, n)))
    for got, want in zip(level[1:], groups._letter_matrices(rep)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("make_group, n", [
    pytest.param(octagon_group, 5, id="octagon-n5"),
    pytest.param(lambda: schottky_rank2(4.0), 9, id="schottky4-n9"),
    pytest.param(_mixed_group, 11, id="mixed-n11"),
])
def test_the_frontier_blocks_change_no_sample(make_group, n, monkeypatch, workers):
    # on one worker thread or on one per CPU, the blocks come in table order
    rep = make_group()
    modes = ((SampleMode.AXIS_ENDPOINTS, 0.0), (SampleMode.ORBIT_PROJECTION, 0.85))
    monkeypatch.setattr(pool, "BLOCK_ROWS", 10**9)
    whole = [limit_sample(rep, DiskPoint(base), n, mode) for mode, base in modes]
    *_, parents, frontier = oracles.word_levels(rep, n)
    # the rows of 1000 parents: the frontier in blocks, the last one short
    monkeypatch.setattr(pool, "BLOCK_ROWS", 1000 * (2 * rep.rank - 1))
    blocks = [b for b in groups._word_blocks(rep, word_table(rep.rank, n))
              if b.letters.shape[1] == n]
    assert len(blocks) > 2
    # the range rule is row-local, so the blocks are the whole level's rows
    for got, want in zip(map(np.concatenate, zip(*blocks)), frontier):
        assert got.tobytes() == want.tobytes()
    if make_group is _mixed_group:
        # the rule divided some of the level's rows and not the others
        fan = 2 * rep.rank - 1
        la, lb = groups._letter_matrices(rep)
        key = _letter_key(frontier.letters[:, -1].astype(np.intp))
        product = np.repeat(parents.a, fan) * la[key] + np.repeat(parents.b, fan) * lb[key].conj()
        passed = np.abs(product) > groups._RESCALE_AT
        assert passed.any() and not passed.all()
    for s, (mode, base) in zip(whole, modes):
        blocked = limit_sample(rep, DiskPoint(base), n, mode)
        assert blocked.angles.tobytes() == s.angles.tobytes()
        assert np.array_equal(blocked.letters, s.letters)


def test_limit_sample_never_holds_a_full_level_of_matrices():
    # octagon n=7 axes: building its last level whole made the traced peak
    # 125.5 MB; built in frontier blocks it is 82.1 MB, which the net of the
    # 1,921,648 endpoints reaches, not the word table.  100 MB leaves 18 MB
    # of margin and fails the whole-level table
    rep = octagon_group()
    tracemalloc.start()
    try:
        s = limit_sample(rep, DiskPoint(0), 7, SampleMode.AXIS_ENDPOINTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 941_632
    assert peak < 100e6


def test_limit_sample_orbit_mode_basepoint_stability(octagon):
    s0 = limit_sample(octagon, DiskPoint(0), 4, SampleMode.ORBIT_PROJECTION)
    s1 = limit_sample(octagon, DiskPoint(0.3 + 0.2j), 4, SampleMode.ORBIT_PROJECTION)
    assert abs(max_angular_gap(s0) - max_angular_gap(s1)) < 0.05


def test_limit_sample_empty(schottky):
    with pytest.raises(EmptySample):
        limit_sample(schottky, DiskPoint(0), 1, SampleMode.ORBIT_PROJECTION, delta=1e-6)


def test_limit_sample_rejects_bad_args(octagon):
    with pytest.raises(InvalidInput):
        limit_sample(octagon, DiskPoint(0), 0, SampleMode.AXIS_ENDPOINTS)
    with pytest.raises(InvalidInput):
        limit_sample(octagon, DiskPoint(0), 2, SampleMode.ORBIT_PROJECTION, delta=1.5)


def test_max_angular_gap_cases():
    def sample_of(angles):
        th = np.sort(np.array(angles, dtype=float))
        return EndpointSample(SampleMode.AXIS_ENDPOINTS, th,
                              np.zeros((len(th), 1), dtype=np.int8))

    assert max_angular_gap(sample_of([0.3, 0.3 + math.pi])) == pytest.approx(math.pi)
    k = 7
    eq = sample_of([2 * math.pi * i / k for i in range(k)])
    assert max_angular_gap(eq) == pytest.approx(2 * math.pi / k)
    assert max_angular_gap(sample_of([1.0])) == pytest.approx(2 * math.pi)
    with pytest.raises(EmptySample):
        max_angular_gap(sample_of([]))


def test_max_angular_gap_brute_force_oracle():
    rng = random.Random(23)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(200))
    th = np.array(angles)
    s = EndpointSample(SampleMode.AXIS_ENDPOINTS, th, np.zeros((200, 1), dtype=np.int8))
    brute = max(
        (angles[(i + 1) % 200] - angles[i]) % (2 * math.pi) for i in range(200)
    )
    assert max_angular_gap(s) == pytest.approx(brute, abs=1e-15)
    prof = gap_profile(s)
    assert prof[0] == pytest.approx(brute, abs=1e-15)
    assert sum(prof) == pytest.approx(2 * math.pi, abs=1e-9)
    assert prof == sorted(prof, reverse=True)


def test_gap_profile_equally_spaced_constant():
    k = 12
    th = np.array([2 * math.pi * i / k for i in range(k)])
    s = EndpointSample(SampleMode.AXIS_ENDPOINTS, th, np.zeros((k, 1), dtype=np.int8))
    prof = gap_profile(s)
    assert prof == pytest.approx([2 * math.pi / k] * k)


def test_octagon_relator_and_generators(octagon):
    m = evaluate(octagon, OCTAGON_RELATOR)
    assert min(max(abs(m.a - 1), abs(m.b)), max(abs(m.a + 1), abs(m.b))) < 1e-6
    for g in octagon.generators:
        assert is_certainly_hyperbolic(g.a, g.b)


def test_octagon_orbit_points_distinct(octagon):
    zs = [0j] + [z for _, z in origin_images(octagon, 2)]
    m = min(abs(a - b) for a, b in itertools.combinations(zs, 2))
    assert m > 1e-6


def test_octagon_axis_gap_decreases(octagon):
    gaps = [
        max_angular_gap(limit_sample(octagon, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS))
        for n in (2, 3, 4, 5)
    ]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_schottky_isometric_circles_closed_form():
    t = 4.0
    rep = schottky_rank2(t)
    # closed forms: centers at +-coth(t/2) and +-i coth(t/2), radius 1/sinh(t/2)
    r = 1.0 / math.sinh(t / 2)
    c = 1.0 / math.tanh(t / 2)
    centers = [c, -c, 1j * c, -1j * c]
    got = []
    for g in rep.generators:
        got.append(-g.a.conjugate() / g.b.conjugate())
        got.append(g.a / g.b.conjugate())
        assert abs(1.0 / abs(g.b) - r) < 1e-12
    for z in got:
        assert min(abs(z - w) for w in centers) < 1e-12
        # orthogonal to the unit circle: |c|^2 = 1 + r^2
        assert abs(abs(z) ** 2 - (1 + r * r)) < 1e-9
    # pairwise disjoint with the closed-form margin
    assert math.sqrt(2) * c > 2 * r


def test_schottky_overlap_raises():
    with pytest.raises(CirclesOverlap):
        schottky_rank2(1.0)
    with pytest.raises(InvalidInput):
        schottky_rank2(-2.0)


def test_schottky_short_words_all_hyperbolic(schottky):
    for w in enumerate_reduced_words(schottky.rank, 4)[1:]:  # past the identity
        m = evaluate(schottky, w)
        assert is_certainly_hyperbolic(m.a, m.b)


def test_schottky_gap_persistence(schottky):
    s4 = limit_sample(schottky, DiskPoint(0), 4, SampleMode.AXIS_ENDPOINTS)
    s6 = limit_sample(schottky, DiskPoint(0), 6, SampleMode.AXIS_ENDPOINTS)
    assert len(s6) >= 3 * len(s4)
    top4 = gap_profile(s4)[0]
    top6 = gap_profile(s6)[0]
    assert top4 > 0.3 and top6 > 0.3
    assert abs(top4 - top6) < 1e-3


def test_cusped_torus_group_shape(cusped_torus):
    for g in cusped_torus.generators:
        assert is_certainly_hyperbolic(g.a, g.b)
    # the commutator is parabolic: trace -2 and a nonzero translation part
    comm = evaluate(cusped_torus, W("ABab"))
    assert comm.a.real == pytest.approx(-1.0, abs=1e-12) and abs(comm.b) > 0.1
    assert not is_certainly_hyperbolic(comm.a, comm.b)


def test_axis_endpoint_sample_conjugation_equivariance(cusped_torus):
    phi = 0.9
    r = MobiusIsometry(cmath.exp(0.5j * phi), 0)  # rotation by phi
    conj = GroupRep(
        tuple(r.compose(g).compose(r.inverse()) for g in cusped_torus.generators),
        label="conjugated",
    )
    s = limit_sample(cusped_torus, DiskPoint(0), 4, SampleMode.AXIS_ENDPOINTS)
    sc = limit_sample(conj, DiskPoint(0), 4, SampleMode.AXIS_ENDPOINTS)
    assert len(s) == len(sc)
    rotated = np.sort(np.mod(s.angles + phi, 2 * math.pi))
    assert np.max(np.abs(rotated - sc.angles)) < 1e-8


def test_axis_endpoint_sample_general_conjugator_equivariance(cusped_torus):
    g = translation_along(Geodesic(IdealPoint(0.7), IdealPoint(3.0)), 0.8)
    conj = GroupRep(
        tuple(g.compose(x).compose(g.inverse()) for x in cusped_torus.generators),
        label="conjugated",
    )
    s = limit_sample(cusped_torus, DiskPoint(0), 3, SampleMode.AXIS_ENDPOINTS)
    sc = limit_sample(conj, DiskPoint(0), 3, SampleMode.AXIS_ENDPOINTS)
    assert len(s) == len(sc)
    moved = np.sort([apply(g, IdealPoint(float(t))).theta for t in s.angles])
    assert np.max(np.abs(moved - sc.angles)) < 1e-8


def test_word_table_rescales_long_powers():
    # a rank-1 table passes 2**256 after ~90 letters and would overflow
    # after ~350; exact rescaling keeps the axis of every power
    g = translation_along(Geodesic(IdealPoint(0.3), IdealPoint(2.0)), 4.0)
    s = limit_sample(GroupRep((g,)), DiskPoint(0), 400, SampleMode.AXIS_ENDPOINTS)
    assert s.angles.tolist() == pytest.approx([0.3, 2.0], abs=1e-12)


def attracting_fixed_angle(m):
    z, _ = circle_fixed_points(m.a, m.b)
    return reduce_angle(cmath.phase(z))


def test_attracting_angle_matches_fixed_points(octagon):
    rng = random.Random(31)
    words = [
        w for w in enumerate_reduced_words(octagon.rank, 3)
        if w.letters and w.letters[0] != -w.letters[-1]  # cyclically reduced
    ]
    for w in rng.sample(words, 25):
        m = evaluate(octagon, w)
        if not is_certainly_hyperbolic(m.a, m.b):
            continue
        assert attracting_angle(octagon, w) == pytest.approx(
            attracting_fixed_angle(m), abs=1e-10
        )


def test_attracting_angle_conjugate_oracle(octagon):
    # short enough for evaluate: conjugation moves fixed points by the
    # boundary action of the conjugator
    u = GroupWord.reduced((1, 2, 1, 1, -3, 2, 2, 4, 1, 2))
    v = W("AB")
    w = u * v * u.inverse()
    theta = attracting_angle(octagon, w)
    m = evaluate(octagon, u)
    expected = apply(m, IdealPoint(attracting_fixed_angle(evaluate(octagon, v)))).theta
    assert theta == pytest.approx(expected, abs=1e-9)


def test_attracting_angle_long_word_is_fixed_by_word(octagon):
    # far beyond evaluate's range: verify the fixed-point property by
    # walking the word's letters on the circle
    u = GroupWord.reduced((1, 2, 1, 1, -3, 2, 2, 4, 1, 2) * 5)
    w = u * W("AB") * u.inverse()
    assert len(w) > 90
    theta = attracting_angle(octagon, w)
    z = complex(math.cos(theta), math.sin(theta))
    for letter in reversed(w.letters):
        g = octagon.letter_isometry(letter)
        z = (g.a * z + g.b) / (g.b.conjugate() * z + g.a.conjugate())
        z /= abs(z)
    moved = math.atan2(z.imag, z.real) % (2 * math.pi)
    diff = abs(moved - theta) % (2 * math.pi)
    assert min(diff, 2 * math.pi - diff) < 1e-6


def test_attracting_angle_none_for_parabolic(cusped_torus):
    assert attracting_angle(cusped_torus, W("ABab")) is None
    assert attracting_angle(cusped_torus, GroupWord()) is None


def scalar_attracting_angle(rep, w):
    # the one-word loop in Python complex arithmetic that the batch
    # replaced, under the batch's range rule (groups._compose_rows) and
    # on the core's root
    if not w.letters:
        return None
    # the cyclic split w = u v u^-1, v cyclically reduced
    k, n = 0, len(w)
    while n - 2 * k >= 2 and w.letters[k] == -w.letters[n - 1 - k]:
        k += 1
    u, v = w.letters[:k], w.letters[k:n - k]
    a, b = 1.0 + 0.0j, 0.0j
    for letter in v[:oracles.root_length(v)]:
        g = rep.letter_isometry(letter)
        a, b = a * g.a + b * g.b.conjugate(), a * g.b + b * g.a.conjugate()
        if abs(a) > groups._RESCALE_AT:
            scale = math.ldexp(1.0, math.frexp(abs(a))[1])
            a, b = a / scale, b / scale
    if not is_certainly_hyperbolic(a, b):
        return None
    z, _ = circle_fixed_points(a, b)
    for letter in reversed(u):
        g = rep.letter_isometry(letter)
        z = (g.a * z + g.b) / (g.b.conjugate() * z + g.a.conjugate())
        z /= abs(z)
    return reduce_angle(cmath.phase(z))


def _random_conjugates(rep, count, rng):
    def word(length):
        letters = []
        while len(letters) < length:
            x = rng.choice([k for k in range(-rep.rank, rep.rank + 1) if k])
            if not letters or letters[-1] != -x:
                letters.append(x)
        return GroupWord(tuple(letters))

    out = []
    while len(out) < count:
        v = word(rng.randrange(1, 25))
        if v.letters[0] != -v.letters[-1]:
            u = word(rng.randrange(1, 10))
            out.append(u * v * u.inverse())
    return out


def _oracle_cases():
    # the classes and images of the four boundary-verdict operations
    for rep, aut, n in (
        (cusped_torus_group(), "A=AB,B=B", 9),
        (cusped_torus_group(), "A=A,B=B", 8),
        (octagon_group(), "A=A,B=ABa,C=ACa,D=ADa", 5),
        (schottky_rank2(2.0), "A=AB,B=B", 8),
    ):
        phi = FreeAutomorphism.from_spec(aut, rank=rep.rank)
        classes = conjugacy_class_words(rep.rank, n)
        words = [GroupWord.from_row(r) for r in classes]
        yield f"{rep.label}-{aut}", rep, words + [substitute(phi.images, w) for w in words]
    rng = random.Random(7)
    for rep in (octagon_group(), cusped_torus_group(), schottky_rank2(4.0)):
        yield f"{rep.label}-conjugates", rep, _random_conjugates(rep, 500, rng) + [
            W("ABab"), W("BAba"), GroupWord(), W("AAbaBBBa") * W("ABab") * W("AbbbAB")]
    g = translation_along(Geodesic(IdealPoint(0.3), IdealPoint(2.0)), 4.0)
    power = GroupWord((1,) * 400)
    yield "rank1-power", GroupRep((g,)), [power, power.inverse(), GroupWord((-1,) * 7)]


def mp_attracting_angle(rep, w):
    """`scalar_attracting_angle` at 60 digits from the same double entries
    and with the same cyclic split; mpmath's exponents need no rescaling."""
    def entries(letter):
        g = rep.letter_isometry(letter)
        return mpmath.mpc(g.a), mpmath.mpc(g.b)

    k, n = 0, len(w)
    while n - 2 * k >= 2 and w.letters[k] == -w.letters[n - 1 - k]:
        k += 1
    with mpmath.workdps(60):
        a, b = mpmath.mpc(1), mpmath.mpc(0)
        for letter in w.letters[k:n - k]:
            ga, gb = entries(letter)
            a, b = a * ga + b * mpmath.conj(gb), a * gb + b * mpmath.conj(ga)
        root = mpmath.sqrt(abs(b) ** 2 - a.imag ** 2) * mpmath.sign(a.real)
        z = (1j * a.imag + root) / mpmath.conj(b)
        for letter in reversed(w.letters[:k]):
            ga, gb = entries(letter)
            z = (ga * z + gb) / (mpmath.conj(gb) * z + mpmath.conj(ga))
        return float(mpmath.arg(z) % (2 * mpmath.pi))


@pytest.mark.parametrize("rep, words", [c[1:] for c in _oracle_cases()],
                         ids=[c[0] for c in _oracle_cases()])
def test_attracting_angles_agree_with_the_scalar_loop_and_mpmath(rep, words):
    got = attracting_angles(rep, letter_matrix(words))
    ref = [scalar_attracting_angle(rep, w) for w in words]
    assert np.isnan(got).tolist() == [r is None for r in ref]
    hyperbolic = [i for i, r in enumerate(ref) if r is not None]
    err = angle_distance(got[hyperbolic], np.array([ref[i] for i in hyperbolic]))
    assert err.max(initial=0.0) <= 8e-15
    spot = random.Random(11).sample(hyperbolic, min(400, len(hyperbolic)))
    exact = np.array([mp_attracting_angle(rep, words[i]) for i in spot])
    assert angle_distance(got[spot], exact).max(initial=0.0) <= 4e-15


def test_a_proper_power_takes_its_roots_angle_bit_for_bit(cusped_torus):
    # r^j and u r^j u^-1 multiply only r, so no power drifts from its root
    r, u = W("AAbaB"), W("bA")
    for root, k in ((W("A"), 400), (r, 80)):
        words = [GroupWord(root.letters * j) for j in range(1, k + 1)]
        words += [u * w * u.inverse() for w in words]
        got = attracting_angles(cusped_torus, letter_matrix(words))
        assert not np.isnan(got).any()
        assert np.array_equal(got[:k].view(np.uint64), np.repeat(got[0], k).view(np.uint64))
        assert np.array_equal(got[k:].view(np.uint64), np.repeat(got[k], k).view(np.uint64))
    # a word that only looks like a power: A A b A A b A A is no power
    assert oracles.root_length(W("AAbAAbAA").letters) == 8


def test_attracting_angles_stay_in_range_past_the_rescale_threshold():
    # letters whose |a| passes _RESCALE_AT: a row is divided by its own
    # power of two whenever a letter takes it past the threshold, so long
    # words stay finite and right (one division by 2**256 overflowed)
    rep = GroupRep((
        translation_along(Geodesic(IdealPoint(0.6), IdealPoint(2.6)), 520.0),
        translation_along(Geodesic(IdealPoint(3.9), IdealPoint(5.9)), 490.0),
    ))
    assert min(abs(rep.letter_isometry(k).a) for k in (1, 2)) > groups._RESCALE_AT
    words = [w for w in _random_conjugates(rep, 80, random.Random(3)) if len(w) >= 10]
    got = attracting_angles(rep, letter_matrix(words))
    assert not np.isnan(got).any()
    exact = np.array([mp_attracting_angle(rep, w) for w in words])
    assert angle_distance(got, exact).max() <= 4e-15


def _same_angles(got, ref):
    nan = np.isnan(ref)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), ref[~nan].view(np.uint64)))


@pytest.mark.parametrize("rep, words", [c[1:] for c in _oracle_cases()],
                         ids=[c[0] for c in _oracle_cases()])
def test_attracting_angles_match_the_column_mask_loop_bit_for_bit(rep, words):
    letters = letter_matrix(words)
    assert _same_angles(attracting_angles(rep, letters), oracles.attracting_angles(rep, letters))


def test_attracting_angles_match_the_column_mask_loop_on_a_shuffled_large_matrix(cusped_torus):
    # more rows than 16,384 complex entries, where numpy starts to elide
    # temporaries: the classes, their twist images and their conjugates
    # by Ba (rows with a conjugator), interleaved at random
    classes = conjugacy_class_words(2, 12)
    blocks = [classes] + [substitute_rows(phi.images, classes) for phi in (
        FreeAutomorphism.from_spec("A=AB,B=B", rank=2), FreeAutomorphism.inner(2, W("Ba")))]
    letters = stack_padded(blocks, max(block.shape[1] for block in blocks))
    letters = letters[np.random.default_rng(5).permutation(len(letters))]
    last = letters[np.arange(len(letters)), np.count_nonzero(letters, axis=1) - 1]
    assert len(letters) > 16_384 and (letters[:, 0] == -last).any()
    got = attracting_angles(cusped_torus, letters)
    assert _same_angles(got, oracles.attracting_angles(cusped_torus, letters))
    assert np.isnan(got).any() and not np.isnan(got).all()


@pytest.mark.parametrize("make_group, n", [
    pytest.param(octagon_group, 5, id="octagon-n5"),
    pytest.param(cusped_torus_group, 10, id="cusped-torus-n10"),
    pytest.param(lambda: schottky_rank2(4.0), 10, id="schottky4-n10"),
    pytest.param(_mixed_group, 11, id="mixed-n11"),  # the range rule fires
    pytest.param(octagon_group, 1, id="octagon-n1"),
    pytest.param(cusped_torus_group, 1, id="cusped-torus-n1"),
])
def test_attracting_angles_of_class_rows_are_the_tables_angles(make_group, n):
    # boundary-map's theta_in of a cyclically reduced word and limit-set's
    # attracting endpoint of its root (the word itself unless a proper
    # power) come from the same products, bit for bit
    rep = make_group()
    classes = conjugacy_class_words(rep.rank, n)
    words = [tuple(x for x in row if x) for row in classes.tolist()]
    roots = [w[:oracles.root_length(w)] for w in words]
    assert (n > 1) == any(len(r) < len(w) for r, w in zip(roots, words))
    want = np.full(len(classes), np.nan)
    for level in oracles.word_levels(rep, n):
        width = level.letters.shape[1]
        index = {row.tobytes(): i for i, row in enumerate(level.letters)}
        at = np.array([k for k, r in enumerate(roots) if len(r) == width], dtype=np.intp)
        rows = [index[np.array(roots[k], dtype=np.int8).tobytes()] for k in at]
        a, b = level.a[rows], level.b[rows]
        ok = is_certainly_hyperbolic(a, b)
        want[at[ok]] = circle_angle(circle_fixed_points(a[ok], b[ok])[0])
    assert not np.isnan(want).all()
    assert _same_angles(attracting_angles(rep, classes), want)


def test_limit_sample_and_attracting_angles_share_disks_guard_and_formula(
        octagon, monkeypatch):
    calls = []

    def spy(f):
        def call(*args):
            calls.append(f.__name__)
            return f(*args)
        return call

    for f in (is_certainly_hyperbolic, circle_fixed_points):
        monkeypatch.setattr(groups, f.__name__, spy(f))
    limit_sample(octagon, DiskPoint(0), 2, SampleMode.AXIS_ENDPOINTS)
    assert {"is_certainly_hyperbolic", "circle_fixed_points"} == set(calls)
    calls.clear()
    attracting_angles(octagon, letter_matrix([W("AB"), W("aCbD")]))
    assert {"is_certainly_hyperbolic", "circle_fixed_points"} == set(calls)


def test_attracting_angles_skips_and_rejects(cusped_torus):
    theta = attracting_angles(cusped_torus, letter_matrix([W("ABab"), GroupWord(), W("AB")]))
    assert np.isnan(theta[:2]).all() and not np.isnan(theta[2])
    assert attracting_angles(cusped_torus, np.zeros((0, 3), dtype=np.int8)).shape == (0,)
    with pytest.raises(IndexOutOfRange):
        attracting_angles(cusped_torus, np.array([[1, 3]], dtype=np.int8))


@pytest.mark.parametrize(
    "make_rep, n",
    [
        (octagon_group, 2),
        (lambda: schottky_rank2(4.0), 10),
        (lambda: schottky_rank2(5.0), 9),
        (cusped_torus_group, 8),
    ],
    ids=["octagon-2", "schottky4-10", "schottky5-9", "cusped-torus-8"],
)
def test_sample_word_provenance(make_rep, n):
    # every row's angle is an axis endpoint of its word (the attracting
    # end of the word or of its inverse), taken by `attracting_angles`:
    # evaluate cannot reach these word lengths
    rep = make_rep()
    s = limit_sample(rep, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS)
    words = [GroupWord.from_row(row) for row in s.letters]
    ends = zip(attracting_angles(rep, s.letters).tolist(),
               attracting_angles(rep, letter_matrix([w.inverse() for w in words])).tolist())
    for w, theta, pair in zip(words, s.angles.tolist(), ends):
        err = min(angle_distance(theta, end) for end in pair)
        assert err < 1e-12, (str(w), err)


def test_sample_csv_and_json_deterministic(octagon):
    s1 = limit_sample(octagon, DiskPoint(0), 3, SampleMode.AXIS_ENDPOINTS)
    s2 = limit_sample(octagon, DiskPoint(0), 3, SampleMode.AXIS_ENDPOINTS)
    assert "".join(s1.to_csv_rows()) == "".join(s2.to_csv_rows())
    json1, json2 = ("".join(endpoint_json(s.mode.value, s.angles, s.letters)) for s in (s1, s2))
    assert json1 == json2
    rows = "".join(s1.to_csv_rows()).split("\n")
    assert rows[0] == "theta,word"
    assert len(rows) == len(s1) + 1
