import cmath
import math
import random

import numpy as np
import pytest

from hypsurf.boundary import (
    OUT_CONSISTENCY_TOL,
    CircleMapSample,
    FreeAutomorphism,
    _dedup_on_circle,
    conjugacy_class_words,
    induced_boundary_sample,
    substitute_rows,
    is_boundary_identity,
    order_check,
    random_nielsen_automorphism,
)
from hypsurf.disk import (
    TOL_ANGLE,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    apply,
    translation_along,
)
from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    NotAnAutomorphism,
    NumericFailure,
    OrderViolation,
    TooFewPoints,
)
from hypsurf import words
from hypsurf.groups import (
    GroupRep,
    attracting_angles,
    cusped_torus_group,
    evaluate,
    octagon_group,
    schottky_rank2,
)
from hypsurf.words import GroupWord, enumerate_reduced_words, substitute, word_count

import oracles

W = GroupWord.from_string


def rotation(theta):
    return MobiusIsometry(cmath.exp(0.5j * theta), 0)


# -- FreeAutomorphism ---------------------------------------------------------


def test_automorphism_validates_inverse():
    with pytest.raises(InvalidInput):
        FreeAutomorphism((W("AB"), W("B")), (W("AB"), W("B")))
    FreeAutomorphism((W("AB"), W("B")), (W("Ab"), W("B")))


def test_automorphism_from_images_and_spec():
    phi = FreeAutomorphism.from_images((W("AB"), W("B")))
    assert phi.inverse_images == (W("Ab"), W("B"))
    psi = FreeAutomorphism.from_spec("A=AB,B=B")
    assert psi == phi
    assert psi.spec_string() == "A=AB,B=B"
    # omitted generators stay fixed when the rank says they exist
    rho = FreeAutomorphism.from_spec("A=AB", rank=2)
    assert rho == phi
    with pytest.raises(NotAnAutomorphism):
        FreeAutomorphism.from_spec("A=AA,B=B")
    with pytest.raises(InvalidInput):
        FreeAutomorphism.from_spec("A=AB,A=B")
    with pytest.raises(InvalidInput):
        FreeAutomorphism.from_spec("AB")


def test_automorphism_compose_invert():
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    psi = FreeAutomorphism.from_spec("A=A,B=BA")
    comp = phi.compose(psi)
    assert substitute(comp.images, W("A")) == substitute(phi.images, substitute(psi.images, W("A")))
    inverse = FreeAutomorphism(comp.inverse_images, comp.images)
    assert comp.compose(inverse).images == FreeAutomorphism.identity(2).images
    inner = FreeAutomorphism.inner(2, W("AB"))
    assert substitute(inner.images, W("B")) == W("AB") * W("B") * W("ba")


# -- sampling ------------------------------------------------------------------


def test_identity_sample_is_diagonal(octagon):
    s = induced_boundary_sample(octagon, FreeAutomorphism.identity(4), 3)
    assert len(s) >= 50
    assert s.skipped == 0
    assert np.max(np.abs(s.theta_in - s.theta_out)) < 1e-10
    tin = s.theta_in
    assert np.all(np.diff(tin) > 0)


def test_inner_sample_matches_mobius_action(octagon):
    g = W("A")
    phi = FreeAutomorphism.inner(4, g)
    s = induced_boundary_sample(octagon, phi, 4)
    assert len(s) >= 100
    ga = evaluate(octagon, g)
    predicted = np.array(
        [apply(ga, IdealPoint(float(t))).theta for t in s.theta_in]
    )
    dev = np.abs(np.angle(np.exp(1j * (predicted - s.theta_out))))
    assert dev.max() < 1e-6


def test_sample_skips_parabolic_classes(cusped_torus):
    phi = FreeAutomorphism.identity(2)
    s = induced_boundary_sample(cusped_torus, phi, 4)
    assert s.skipped == 1  # the commutator class bounds the cusp


def test_sample_empty_when_nothing_hyperbolic():
    # rotations about a common center: every word is elliptic. Every class
    # skipped is more than half skipped: NumericFailure, not an EmptySample
    # asking for a larger n
    rep = GroupRep((rotation(1.0), rotation(2.0)))
    with pytest.raises(NumericFailure, match="classes skipped"):
        induced_boundary_sample(rep, FreeAutomorphism.identity(2), 2)


def test_sample_fails_loudly_when_only_parabolic():
    # one parabolic generator: every power is parabolic
    rep = GroupRep((MobiusIsometry(1 + 1j, 1),))
    with pytest.raises(NumericFailure, match="classes skipped"):
        induced_boundary_sample(rep, FreeAutomorphism.identity(1), 4)


def test_sample_loud_failure_on_majority_skips():
    def rot_about(p, theta):
        s = math.sqrt(1.0 - p * p)
        t = MobiusIsometry(1.0 / s, -p / s)  # z -> (z - p)/(1 - p z), p to 0
        return t.inverse().compose(rotation(theta)).compose(t)

    rep = GroupRep((rotation(2.0), rot_about(0.7, 2.0)))
    with pytest.raises(NumericFailure):
        induced_boundary_sample(rep, FreeAutomorphism.identity(2), 2)


def test_random_inner_automorphisms_act_on_the_octagon_group(octagon):
    # g r g^-1 is conjugate to the relator r, so no inner automorphism is
    # rejected as not acting on the group
    rng = random.Random(4)
    letters = (1, -1, 2, -2, 3, -3, 4, -4)
    for _ in range(25):
        g = GroupWord.reduced([rng.choice(letters) for _ in range(rng.randrange(1, 10))])
        s = induced_boundary_sample(octagon, FreeAutomorphism.inner(4, g), 1)
        assert len(s) == 4


def test_sample_rejects_rank_mismatch(octagon):
    with pytest.raises(InvalidInput):
        induced_boundary_sample(octagon, FreeAutomorphism.identity(2), 2)


def test_sample_detects_inconsistent_collisions():
    # two generators sharing an attracting fixed point, with an
    # automorphism separating their images: colliding theta_in must not
    # be silently resolved
    t1 = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi)), 2.0)
    t2 = translation_along(Geodesic(IdealPoint(0), IdealPoint(math.pi / 2)), 2.0)
    rep = GroupRep((t1, t2))
    invert_b = FreeAutomorphism((W("A"), W("b")), (W("A"), W("b")))
    with pytest.raises(OrderViolation):
        induced_boundary_sample(rep, invert_b, 1)


def _dedup_by_pairs(tin, tout, letters):
    # the tuple loop the array dedup replaced
    raw = sorted(zip(tin.tolist(), tout.tolist(), [GroupWord.from_row(r) for r in letters]),
                 key=lambda p: p[0])
    pairs = [raw[0]]
    for t_in, t_out, w in raw[1:]:
        if t_in - pairs[-1][0] <= TOL_ANGLE:
            assert _circ(t_out, pairs[-1][1]) <= OUT_CONSISTENCY_TOL
            continue
        pairs.append((t_in, t_out, w))
    while len(pairs) > 1 and pairs[0][0] + 2 * math.pi - pairs[-1][0] <= TOL_ANGLE:
        assert _circ(pairs[-1][1], pairs[0][1]) <= OUT_CONSISTENCY_TOL
        pairs.pop()
    return pairs


def _circ(t1, t2):
    d = abs(t1 - t2) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _rows(count):
    # distinct provenance rows, one per entry
    i = np.arange(count)
    return np.column_stack([i // 100 + 1, i % 100 + 1]).astype(np.int8)


def test_dedup_collides_with_the_last_kept_entry():
    # 0.6e-9 collides with 0; 1.2e-9 is within TOL_ANGLE of 0.6e-9 but
    # not of 0, the last kept entry, so it stays
    tin = np.array([1.0, 1.2e-9, 0.6e-9, 0.0])
    tin_k, tout_k, _ = _dedup_on_circle(tin, tin + 0.5, _rows(4))
    assert tin_k.tolist() == [0.0, 1.2e-9, 1.0]
    assert tout_k.tolist() == [0.5, 0.5 + 1.2e-9, 1.5]


def test_dedup_wraparound_and_stable_ties():
    two_pi = 2 * math.pi
    tin = np.array([two_pi - 4e-10, 3.0, 1e-10, two_pi - 1e-10, 3.0])
    letters = np.array([[1], [2], [-1], [-2], [1]], dtype=np.int8)
    tin_k, tout_k, rows = _dedup_on_circle(tin, np.mod(tin + 1.0, two_pi), letters)
    assert tin_k.tolist() == [1e-10, 3.0]
    assert rows[:, 0].tolist() == [-1, 2]  # the first of two equal inputs is kept


def test_dedup_rejects_colliding_inputs_with_distinct_outputs():
    with pytest.raises(OrderViolation, match=r"\(A vs B\)") as e:
        _dedup_on_circle(np.array([0.5, 0.5 + 1e-10]), np.array([1.0, 2.0]),
                         np.array([[1], [2]], dtype=np.int8))
    assert e.value.triple == ((0.5, 1.0), (0.5 + 1e-10, 2.0))
    with pytest.raises(OrderViolation, match="wraparound"):
        _dedup_on_circle(np.array([1e-10, 1.0, 2 * math.pi - 1e-10]),
                         np.array([1.0, 2.0, 3.0]), _rows(3))


def test_dedup_matches_the_pairs_loop():
    rng = np.random.default_rng(3)
    # clustered inputs: many collisions, chains longer than TOL_ANGLE,
    # exact ties and entries near both ends of [0, 2*pi)
    centers = rng.uniform(0, 2 * math.pi, 40)
    centers[:2] = (1e-10, 2 * math.pi - 3e-10)
    tin = np.repeat(centers, 25) + rng.integers(0, 6, 1000) * 4e-10
    tin = np.mod(tin, 2 * math.pi)
    tout = np.mod(tin + 0.25, 2 * math.pi)
    letters = _rows(1000)
    tin_k, tout_k, rows = _dedup_on_circle(tin, tout, letters)
    pairs = _dedup_by_pairs(tin, tout, letters)
    assert len(pairs) < 200
    assert tin_k.tolist() == [p[0] for p in pairs]
    assert tout_k.tolist() == [p[1] for p in pairs]
    assert [GroupWord.from_row(r) for r in rows] == [p[2] for p in pairs]


def _dedup_input(rep, spec, n):
    # the hyperbolic entries `induced_boundary_sample` hands to the dedup
    phi = FreeAutomorphism.from_spec(spec, rank=rep.rank)
    classes = conjugacy_class_words(rep.rank, n)
    tin = attracting_angles(rep, classes)
    tout = attracting_angles(rep, substitute_rows(phi.images, classes))
    ok = ~(np.isnan(tin) | np.isnan(tout))
    return tin[ok], tout[ok], classes[ok]


def _dedup_outcome(dedup, tin, tout, letters):
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in dedup(tin, tout, letters)]
    except OrderViolation as e:
        return (str(e), e.triple)


@pytest.mark.parametrize("make_group, spec, ns", [
    # the four boundary-verdict inputs of the benchmark
    pytest.param(cusped_torus_group, "A=AB,B=B", (9,), id="torus-twist-n9"),
    pytest.param(cusped_torus_group, "A=A,B=B", (8,), id="torus-identity-n8"),
    pytest.param(octagon_group, "A=A,B=ABa,C=ACa,D=ADa", (5,), id="octagon-inner-a-n5"),
    pytest.param(lambda: schottky_rank2(2.0), "A=AB,B=B", (8,), id="schottky2-twist-n8"),
    # saturated Schottky samples: long collision clusters, some inconsistent
    *(pytest.param(lambda sep=sep: schottky_rank2(sep), spec, range(1, 10),
                   id=f"schottky{sep:g}-{spec}-n1to9")
      for sep in (6.0, 10.0) for spec in ("A=AB,B=B", "A=A,B=B")),
])
def test_dedup_matches_the_walk_back_oracle(make_group, spec, ns):
    rep = make_group()
    for n in ns:
        arrays = _dedup_input(rep, spec, n)
        assert (_dedup_outcome(_dedup_on_circle, *arrays)
                == _dedup_outcome(oracles.dedup_on_circle, *arrays)), n


def _class_words_by_definition(rank, n):
    # the cyclically reduced words of the tree in shortlex order, deduped
    # on the scalar class representative, first of each kept
    seen, reps = set(), []
    for w in enumerate_reduced_words(rank, n):
        if not w.letters or w.letters[0] == -w.letters[-1]:
            continue
        rep = w.conjugacy_class_rep()
        if rep.letters not in seen:
            seen.add(rep.letters)
            reps.append(rep)
    return reps


# (1, 70): (2k)^L passes int64 there, so packed codes must not wrap
@pytest.mark.parametrize("rank, n", [(1, 70), *((2, n) for n in range(1, 10)), (3, 6), (4, 5)])
def test_conjugacy_class_words_counts(rank, n):
    rows = conjugacy_class_words(rank, n)
    assert rows.dtype == np.int8 and rows.shape[1] == n
    reps = [GroupWord.from_row(row) for row in rows]
    assert reps == _class_words_by_definition(rank, n)
    assert all(w.cyclic_reduction() == w for w in reps)
    if (rank, n) == (2, 2):
        # {A}, {B}, {AB}, {Ab}, {AA}, {BB}
        assert len(reps) == 6


@pytest.mark.parametrize("rank, n", [(1, 70), (2, 10), (2, 11), (3, 7), (4, 6), (5, 4)])
def test_conjugacy_class_words_match_the_packed_code_table(rank, n):
    new, ref = conjugacy_class_words(rank, n), oracles.conjugacy_class_words(rank, n)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)


def test_conjugacy_class_words_budget_is_the_word_count(monkeypatch):
    # at the real budget, rank 2 passes n = 13 and stops at n = 14
    assert word_count(2, 13) <= words.DEFAULT_WORD_BUDGET < word_count(2, 14)
    assert conjugacy_class_words(2, 13).shape[1] == 13
    for table in (conjugacy_class_words, oracles.conjugacy_class_words):
        with pytest.raises(BudgetExceeded):
            table(2, 14)
    assert conjugacy_class_words(2, 0).shape == (0, 0)
    monkeypatch.setattr(words, "DEFAULT_WORD_BUDGET", word_count(2, 5))
    assert len(conjugacy_class_words(2, 5)) == 51
    monkeypatch.setattr(words, "DEFAULT_WORD_BUDGET", word_count(2, 5) - 1)
    for table in (conjugacy_class_words, oracles.conjugacy_class_words):
        with pytest.raises(BudgetExceeded):
            table(2, 5)


# -- order_check ----------------------------------------------------------------


def test_order_check_identity_preserving(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    assert order_check(s).orientation == "preserving"


def test_order_check_reflection_reversing(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    reflected = CircleMapSample(s.theta_in, np.mod(-s.theta_out, 2 * math.pi), s.letters)
    assert order_check(reflected).orientation == "reversing"


def test_order_check_violation_lists_triple(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    tout = s.theta_out.copy()
    tout[[2, 5]] = tout[[5, 2]]
    verdict = order_check(CircleMapSample(s.theta_in, tout, s.letters))
    assert verdict.orientation is None
    assert verdict.violation is not None and len(verdict.violation) == 3


def test_order_check_needs_three_points(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    with pytest.raises(TooFewPoints):
        order_check(CircleMapSample(s.theta_in[:2], s.theta_out[:2], s.letters[:2]))


def test_orientation_multiplicative(schottky):
    swap = FreeAutomorphism((W("B"), W("A")), (W("B"), W("A")))
    ident = FreeAutomorphism.identity(2)
    orientations = {}
    for name, phi in (("swap", swap), ("id", ident), ("swap2", swap.compose(swap))):
        s = induced_boundary_sample(schottky, phi, 4)
        orientations[name] = order_check(s).orientation
    assert orientations["swap"] == "reversing"
    assert orientations["id"] == "preserving"
    assert orientations["swap2"] == "preserving"  # reversing x reversing


# -- is_boundary_identity ---------------------------------------------------------


def test_identity_detected(cusped_torus):
    sample = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    r = is_boundary_identity(cusped_torus, sample)
    assert r.identity
    assert r.best_inner == GroupWord()
    assert r.residual < 1e-10


def test_inner_detected_with_inverse_conjugator(cusped_torus):
    sample = induced_boundary_sample(cusped_torus, FreeAutomorphism.inner(2, W("A")), 4)
    r = is_boundary_identity(cusped_torus, sample, m=1)
    assert r.identity
    assert r.best_inner == W("a")
    assert r.residual < 1e-6


def test_inner_residual_small_for_all_depths_past_conjugator(cusped_torus):
    conj = W("AB")
    sample = induced_boundary_sample(cusped_torus, FreeAutomorphism.inner(2, conj), 4)
    for m in (2, 3):
        r = is_boundary_identity(cusped_torus, sample, m=m)
        assert r.identity and r.residual < 1e-6
        assert r.best_inner == conj.inverse()
    # search shallower than the conjugator cannot cancel it
    r = is_boundary_identity(cusped_torus, sample, m=1, tol=1e-3)
    assert not r.identity


def test_twist_rejected(cusped_torus):
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    r = is_boundary_identity(cusped_torus, induced_boundary_sample(cusped_torus, phi, 5),
                             m=3, tol=0.01)
    assert not r.identity
    assert r.residual > 0.05
    assert r.skipped >= 1


def test_inner_search_has_no_entry_bound():
    # evaluate() refuses this group's length-3 products; the word table is
    # scale-free, so the search over them runs
    rep = schottky_rank2(10.0)
    sample = induced_boundary_sample(rep, FreeAutomorphism.from_spec("A=AB,B=B"), 3)
    with pytest.raises(NumericFailure):
        evaluate(rep, W("AAA"))
    r2 = is_boundary_identity(rep, sample, m=2)
    r3 = is_boundary_identity(rep, sample, m=3)
    # the rows of length <= 2 are shared, so more words only lower the minimum
    assert r3.residual <= r2.residual
    assert r3.sample_size == len(sample)


def test_near_minimizers_reported(cusped_torus):
    sample = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    r = is_boundary_identity(cusped_torus, sample, m=0)
    assert r.near_minimizers == (GroupWord(),)
    assert r.to_json()["best_inner"] == "1"


# -- functoriality and inverses ----------------------------------------------------


def test_sample_functoriality(cusped_torus):
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    psi = FreeAutomorphism.from_spec("A=A,B=BA")
    comp = phi.compose(psi)
    s_comp = induced_boundary_sample(cusped_torus, comp, 4)
    # pointwise composition: map theta through psi's sample then phi's via
    # the defining fixed-point recipe
    from hypsurf.groups import attracting_angle

    for i, tout in enumerate(s_comp.theta_out.tolist()):
        w = GroupWord.from_row(s_comp.letters[i])
        step = attracting_angle(cusped_torus, substitute(psi.images, w))
        final = attracting_angle(cusped_torus, substitute(phi.images, substitute(psi.images, w)))
        assert step is not None and final is not None
        dev = abs(final - tout) % (2 * math.pi)
        assert min(dev, 2 * math.pi - dev) < 1e-6


def test_sample_inverse_reverses_pairs(cusped_torus):
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    s = induced_boundary_sample(cusped_torus, phi, 4)
    s_inv = induced_boundary_sample(
        cusped_torus, FreeAutomorphism(phi.inverse_images, phi.images), 6)
    forward = {}
    for tin, tout in zip(s.theta_in.tolist(), s.theta_out.tolist()):
        forward[round(tin, 9)] = tout
    hits = 0
    for tin, tout in zip(s_inv.theta_in.tolist(), s_inv.theta_out.tolist()):
        # the inverse sample contains the reversed pair at phi^-1(w)'s class
        key = round(tout, 9)
        if key in forward:
            dev = abs(forward[key] - tin) % (2 * math.pi)
            assert min(dev, 2 * math.pi - dev) < 1e-6
            hits += 1
    assert hits >= 5


def test_fifty_random_automorphisms_preserve_order():
    sc = schottky_rank2(2.0)
    rng = random.Random(20260811)
    for _ in range(50):
        phi = random_nielsen_automorphism(2, rng.randrange(6), rng,
                                          max_total_image_length=8)
        s = induced_boundary_sample(sc, phi, 3)
        verdict = order_check(s)
        assert verdict.orientation == "preserving"
        assert verdict.violation is None
