import cmath
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from hypsurf import boundary, cli, pool
from hypsurf.boundary import (
    CircleMapSample,
    FreeAutomorphism,
    certify_automorphism,
    conjugacy_class_words,
    induced_boundary_sample,
    is_boundary_identity,
    order_check,
    random_nielsen_automorphism,
)
from hypsurf.disk import (
    TOL_ANGLE,
    TWO_PI,
    circle_fixed_points,
    circle_net,
    IdealPoint,
    MobiusIsometry,
    apply,
)
from hypsurf.errors import (
    BudgetExceeded,
    IndexOutOfRange,
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
from hypsurf.words import (
    GroupWord,
    enumerate_reduced_words,
    substitute,
    substitute_rows,
    word_count,
)

import oracles

W = GroupWord.from_string


def rotation(theta):
    return MobiusIsometry(cmath.exp(0.5j * theta), 0)


# -- FreeAutomorphism ---------------------------------------------------------


def test_automorphism_validates_images():
    with pytest.raises(IndexOutOfRange):
        FreeAutomorphism((W("AC"), W("B")))
    with pytest.raises(InvalidInput):
        FreeAutomorphism(())
    # an endomorphism that is no automorphism is still built: the group decides
    assert FreeAutomorphism((W("AA"), W("B"))).spec_string() == "A=AA,B=B"


def test_automorphism_from_images_and_spec():
    phi = FreeAutomorphism((W("AB"), W("B")))
    psi = FreeAutomorphism.from_spec("A=AB,B=B")
    assert psi == phi
    assert psi.spec_string() == "A=AB,B=B"
    # omitted generators stay fixed when the rank says they exist
    rho = FreeAutomorphism.from_spec("A=AB", rank=2)
    assert rho == phi
    with pytest.raises(IndexOutOfRange):
        FreeAutomorphism.from_spec("A=AC,B=B")
    with pytest.raises(InvalidInput):
        FreeAutomorphism.from_spec("A=AB,A=B")
    with pytest.raises(InvalidInput):
        FreeAutomorphism.from_spec("AB")


def test_automorphism_compose_invert():
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    psi = FreeAutomorphism.from_spec("A=A,B=BA")
    comp = phi.compose(psi)
    assert substitute(comp.images, W("A")) == substitute(phi.images, substitute(psi.images, W("A")))
    # (phi psi)^-1 = psi^-1 phi^-1, written out, is the Whitehead oracle's inverse
    inverse = FreeAutomorphism.from_spec("A=A,B=Ba").compose(FreeAutomorphism.from_spec("A=Ab,B=B"))
    assert inverse.images == oracles.invert_images(comp.images)
    assert comp.compose(inverse).images == FreeAutomorphism.identity(2).images
    assert inverse.compose(comp).images == FreeAutomorphism.identity(2).images
    inner = FreeAutomorphism.inner(2, W("AB"))
    assert substitute(inner.images, W("B")) == W("AB") * W("B") * W("ba")


# -- certifying automorphisms --------------------------------------------------


def _random_endomorphism(rng):
    letters = (1, -1, 2, -2)
    return FreeAutomorphism(tuple(
        GroupWord.reduced([rng.choice(letters) for _ in range(rng.randrange(6))])
        for _ in range(2)))


def _certified(rep, phi):
    try:
        certify_automorphism(rep, phi)
    except NotAnAutomorphism:
        return False
    return True


def test_commutator_test_agrees_with_whitehead_inversion(cusped_torus):
    # seeded random endomorphisms of F(A, B), images of length <= 5: the
    # commutator test accepts exactly those the Whitehead oracle inverts
    rng = random.Random(18)
    accepted = 0
    for _ in range(3000):
        phi = _random_endomorphism(rng)
        try:
            oracles.invert_images(phi.images)
            invertible = True
        except NotAnAutomorphism:
            invertible = False
        assert _certified(cusped_torus, phi) == invertible, phi.spec_string()
        accepted += invertible
    assert 400 < accepted < 600  # 524 of the 3,000


def test_random_nielsen_automorphisms_are_certified(cusped_torus, monkeypatch):
    rng = random.Random(7)
    for n_moves in range(12):
        for _ in range(10):
            certify_automorphism(cusped_torus, random_nielsen_automorphism(2, n_moves, rng))
    # 40 moves: certified by one substitution of the commutator, no search
    phi = random_nielsen_automorphism(2, 40, rng)
    assert sum(len(w) for w in phi.images) >= 80
    calls = []
    monkeypatch.setattr(boundary, "substitute",
                        lambda images, w: calls.append(w) or substitute(images, w))
    certify_automorphism(cusped_torus, phi)
    assert calls == [boundary.COMMUTATOR]


def test_octagon_is_certified_by_its_relator_alone(octagon, monkeypatch):
    # A -> AbCd fixes the relator AbCdaBcD; after it, an inner automorphism
    phi = FreeAutomorphism.inner(4, W("ABCDabcdAC")).compose(
        FreeAutomorphism.from_spec("A=AbCd", rank=4))
    calls = []
    monkeypatch.setattr(boundary, "substitute",
                        lambda images, w: calls.append(w) or substitute(images, w))
    certify_automorphism(octagon, phi)
    assert calls == list(octagon.relators)


def test_free_groups_of_rank_other_than_two_are_not_certified():
    for rank in (1, 3):
        rep = GroupRep(tuple(MobiusIsometry(1.25, 0.75) for _ in range(rank)))
        with pytest.raises(InvalidInput) as info:
            induced_boundary_sample(rep, FreeAutomorphism.identity(rank), 2)
        assert not isinstance(info.value, NotAnAutomorphism)


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
    # two parabolics fixing i, translation lengths 2 and 2 sqrt 2 apart:
    # every word is parabolic or, like the commutator, the identity
    s = math.sqrt(2.0)
    rep = GroupRep((MobiusIsometry(1 + 1j, 1), MobiusIsometry(1 + 1j * s, s)))
    with pytest.raises(NumericFailure, match="classes skipped"):
        induced_boundary_sample(rep, FreeAutomorphism.identity(2), 4)


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


@pytest.mark.parametrize("make_group, aut, n", [
    pytest.param(cusped_torus_group, "A=AB,B=B", 9, id="cusped-torus-n9"),
    pytest.param(octagon_group, "A=A,B=ABa,C=ACa,D=ADa", 4, id="octagon-n4"),
])
def test_sample_in_class_blocks_moves_no_bit(make_group, aut, n, monkeypatch, sized_pool):
    # blocks of 7 classes, several in flight on 1, 2 and 5 workers, give
    # the one-block sample bit for bit, the skipped classes included
    rep = make_group()
    phi = FreeAutomorphism.from_spec(aut, rank=rep.rank)
    whole = induced_boundary_sample(rep, phi, n)
    monkeypatch.setattr(pool, "BLOCK_ROWS", 7)
    assert len(conjugacy_class_words(rep.rank, n)) > 2 * pool.BLOCK_ROWS
    blocked = induced_boundary_sample(rep, phi, n)
    assert blocked.theta_in.tobytes() == whole.theta_in.tobytes()
    assert blocked.theta_out.tobytes() == whole.theta_out.tobytes()
    assert np.array_equal(blocked.letters, whole.letters)
    assert blocked.skipped == whole.skipped


def test_the_close_pair_of_the_twist_is_one_net_point(cusped_torus):
    # two class representatives whose attracting points under A=AB,B=B
    # are closer than TOL_ANGLE: the net keeps the smaller theta_in alone,
    # in either order, although their theta_out are 7.56e-7 apart
    pair = np.array([W("AbbAbbAbbAbbbbb").letters, W("AbbAbbAbbAbbbb").letters + (0,)],
                    dtype=np.int8)
    images = FreeAutomorphism.from_spec("A=AB,B=B", rank=2).images
    tin = attracting_angles(cusped_torus, pair)
    tout = attracting_angles(cusped_torus, substitute_rows(images, pair))
    assert 9.9e-10 < tin[1] - tin[0] < 9.95e-10 < TOL_ANGLE
    assert 7.5e-7 < tout[1] - tout[0] < 7.6e-7
    assert circle_net(tin).tolist() == [0]
    assert circle_net(tin[::-1]).tolist() == [1]


def test_sample_rejects_rank_mismatch(octagon):
    with pytest.raises(InvalidInput):
        induced_boundary_sample(octagon, FreeAutomorphism.identity(2), 2)


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


# (1, 300): the periods of the prenecklace rule pass int8's range there
@pytest.mark.parametrize("rank, n", [(1, 70), (1, 300), (2, 10), (2, 11), (3, 7), (4, 6),
                                     (5, 4)])
def test_conjugacy_class_words_match_the_packed_code_table(rank, n):
    new, ref = conjugacy_class_words(rank, n), oracles.conjugacy_class_words(rank, n)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)


def test_conjugacy_class_words_budget_counts_generated_rows(monkeypatch):
    # the budget counts the rows each level generates, the kept parents
    # times the fan, with the alphabet and the empty word: far fewer than
    # the unpruned word_count of the same length
    generated = [1]
    levels = words.shortlex_levels

    def counting(rank, n, keep):
        def spy(rows):
            generated.append(len(rows))
            return keep(rows)
        return levels(rank, n, keep=spy)

    monkeypatch.setattr(boundary, "shortlex_levels", counting)
    reps = conjugacy_class_words(2, 8)
    total = sum(generated)
    assert len(generated) == 9 and total < word_count(2, 8) // 4
    monkeypatch.setattr(words, "DEFAULT_WORD_BUDGET", total)
    assert np.array_equal(conjugacy_class_words(2, 8), reps)
    monkeypatch.setattr(words, "DEFAULT_WORD_BUDGET", total - 1)
    with pytest.raises(BudgetExceeded, match=f"^{total} words exceed the budget of {total - 1}$"):
        conjugacy_class_words(2, 8)
    assert conjugacy_class_words(2, 0).shape == (0, 0)


def test_conjugacy_class_words_hold_narrow_periods():
    # cusped-torus n=13: the traced peak is 13.1 MB.  14 MB fails the
    # prenecklace periods in intp (14.9 MB), and the representative tests
    # on int16 keys with their t rotation tests stacked before their
    # reduction (17.4 MB)
    tracemalloc.start()
    try:
        classes = conjugacy_class_words(2, 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == 96_320
    assert peak < 14e6


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


def test_sample_raises_on_a_crossing_between_kept_entries(cusped_torus, monkeypatch):
    # the net drops only ties, so a crossing between kept entries is still
    # an OrderViolation: the identity with the outputs of A and B swapped
    calls = []

    def swapped(rep, letters):
        t = attracting_angles(rep, letters)
        calls.append(t)
        if len(calls) == 2:  # theta_out
            t[[0, 1]] = t[[1, 0]]
        return t

    monkeypatch.setattr(boundary, "attracting_angles", swapped)
    with pytest.raises(OrderViolation) as e:
        induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    assert len(e.value.triple) == 3
    tin, _ = calls
    assert {tin[0], tin[1]} & {t for t, _ in e.value.triple}


def test_order_check_needs_three_points(cusped_torus):
    # fewer than three points hold no triple, so no orientation
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    for m in (0, 1, 2):
        sample = CircleMapSample(s.theta_in[:m], s.theta_out[:m], s.letters[:m])
        assert order_check(sample) == boundary.OrderCheckResult(None)


def test_orientation_multiplicative(schottky):
    swap = FreeAutomorphism((W("B"), W("A")))
    ident = FreeAutomorphism.identity(2)
    orientations = {}
    for name, phi in (("swap", swap), ("id", ident), ("swap2", swap.compose(swap))):
        s = induced_boundary_sample(schottky, phi, 4)
        orientations[name] = order_check(s).orientation
    assert orientations["swap"] == "reversing"
    assert orientations["id"] == "preserving"
    assert orientations["swap2"] == "preserving"  # reversing x reversing


#: automorphisms whose samples hold ties at double resolution: products of
#: transvections with two classes of the same theta_out to the last bit (a
#: resolution collapse, not a crossing), and the twist on Schottky groups,
#: whose theta_in ties within TOL_ANGLE stretch to theta_out gaps of 1e-6
#: (once rejected as colliding inputs with distinct outputs)
TIED_SAMPLES = [
    "boundary-map --group schottky --separation 2 --aut A=bba,B=ABABB --n 5",
    "boundary-map --group cusped-torus --aut A=BAABA,B=BA --n 6",
    "boundary-map --group schottky --aut A=AB,B=B --n 7",
    "boundary-map --group schottky --aut A=AB,B=B --n 10",
    "boundary-map --group schottky --separation 12 --aut A=AB,B=B --n 4",
]


@pytest.mark.parametrize("argv", TIED_SAMPLES)
def test_order_check_passes_over_tied_outputs(argv, tmp_path, capsys):
    assert cli.main(argv.split() + ["-o", str(tmp_path / "map.csv")]) == 0
    assert cli.main(argv.split() + ["--check-identity"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "preserving"


#: powers of the twist and a product of twists on the punctured torus:
#: mapping classes, whose boundary maps are circle homeomorphisms, and
#: whose samples hold outputs tied to within TOL_ANGLE but not bitwise
TWIST_PRODUCTS = [f"A=A{'B' * k},B=B" for k in range(1, 10)] + ["A=AAB,B=AB"]


@pytest.mark.parametrize("aut", TWIST_PRODUCTS)
def test_order_check_passes_over_outputs_tied_within_tol_angle(aut, capsys):
    argv = ["boundary-map", "--group", "cusped-torus", "--aut", aut, "--n", "10",
            "--check-identity"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["order"] == "preserving"


def _tied_sample(theta_out):
    tin = np.linspace(0.0, 6.0, len(theta_out))
    return CircleMapSample(tin, np.asarray(theta_out), np.zeros((len(tin), 1), np.int8))


def test_order_check_tie_in_a_decreasing_map_is_still_reversing():
    tout = np.mod(-np.linspace(0.0, 6.0, 12), TWO_PI)
    tout[5] = tout[4]
    assert order_check(_tied_sample(tout)).orientation == "reversing"


def test_order_check_tie_does_not_hide_a_crossing():
    tout = np.linspace(0.0, 6.0, 12)
    tout[5] = tout[4]
    tout[[8, 9]] = tout[[9, 8]]
    verdict = order_check(_tied_sample(tout))
    assert verdict.orientation is None
    assert verdict.violation is not None and len(verdict.violation) == 3


def test_order_check_undecided_when_every_triple_is_tied():
    verdict = order_check(_tied_sample([1.0, 1.0, 2.0, 2.0]))
    assert verdict == boundary.OrderCheckResult(None)


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


def test_inner_search_rejects_an_empty_sample(cusped_torus):
    empty = CircleMapSample(np.zeros(0), np.zeros(0), np.zeros((0, 1), np.int8))
    with pytest.raises(TooFewPoints):
        is_boundary_identity(cusped_torus, empty)


#: the boundary-verdict operations: (group, automorphism, n)
VERDICT_OPS = [
    (cusped_torus_group, "A=AB,B=B", 9),
    (cusped_torus_group, "A=A,B=B", 8),
    (octagon_group, "A=A,B=ABa,C=ACa,D=ADa", 5),
    (lambda: schottky_rank2(2.0), "A=AB,B=B", 8),
]


def _fixed_points_of_a(rep):
    """A's two fixed points mapped to themselves: u = 1, A, AA and AAA all
    fix them, so their residuals are all rounding."""
    a = rep.letter_isometry(1)
    theta = np.sort(np.mod(np.angle(circle_fixed_points(a.a, a.b)), TWO_PI))
    return CircleMapSample(theta, theta, np.array([[1], [1]], np.int8))


def _search_cases():
    """(rep, sample, m, tol) over which the pruned search must be the full one."""
    for make, aut, n in VERDICT_OPS:
        rep = make()
        yield rep, induced_boundary_sample(rep, FreeAutomorphism.from_spec(aut), n), 3, 1e-3
    rng = random.Random(20261019)
    for make in (cusped_torus_group, lambda: schottky_rank2(2.0)):
        rep = make()
        for _ in range(20):
            phi = random_nielsen_automorphism(2, rng.randrange(1, 6), rng,
                                              max_total_image_length=8)
            sample = induced_boundary_sample(rep, phi, 4)
            for m in range(4):
                yield rep, sample, m, 1e-3
    rep = cusped_torus_group()
    small = induced_boundary_sample(rep, FreeAutomorphism.from_spec("A=AB,B=B"), 2)
    assert len(small) < boundary._BOUND_POINTS
    yield rep, small, 3, 1e-3
    yield rep, _fixed_points_of_a(rep), 3, 1e-3


def test_pruned_inner_search_is_the_full_search():
    cases = list(_search_cases())
    assert len(cases) == 4 + 2 * 20 * 4 + 2
    for rep, sample, m, tol in cases:
        fast = is_boundary_identity(rep, sample, m=m, tol=tol)
        full = oracles.inner_search(rep, sample, m, tol)
        assert fast.to_json() == full.to_json()
        assert repr(fast.residual) == repr(full.residual)
    # the last case is the built-in tie: 1 is exact, and every power of A
    # fixes both points to rounding
    assert str(full.best_inner) == "1" and full.residual == 0.0
    zout, unturn = np.exp(1j * sample.theta_out), np.exp(-1j * sample.theta_in)
    for level in oracles.word_levels(rep, 3):
        # A^t and a^t: every letter equal to the first, which is A or a
        power = (level.letters == level.letters[:, :1]).all(axis=1)
        power &= np.abs(level.letters[:, 0]) == 1
        a, b = level.a[power], level.b[power]
        assert len(a) == 2
        assert 0 < boundary._residual(a[:, None], b[:, None], zout, unturn).max() < 1e-13


def test_inner_bound_is_the_full_pass_at_its_points_bit_for_bit():
    for rep, sample, m, _ in _search_cases():
        zout = np.exp(1j * sample.theta_out)
        unturn = np.exp(-1j * sample.theta_in)
        levels = oracles.word_levels(rep, m)
        ua = [1.0 + 0j] + [a for level in levels for a in level.a.tolist()]
        ub = [0j] + [b for level in levels for b in level.b.tolist()]
        at, bounds = boundary._lower_bounds(np.array(ua), np.array(ub), zout, unturn)
        assert len(at) == min(boundary._BOUND_POINTS, len(sample))
        full = np.array([
            np.abs(np.angle((a * zout + b) / (b.conjugate() * zout + a.conjugate()) * unturn))
            for a, b in zip(ua, ub)])
        assert bounds.tobytes() == full[:, at].max(axis=1).tobytes()


def test_inner_bound_is_exact_across_blocks(monkeypatch):
    rep = cusped_torus_group()
    sample = induced_boundary_sample(rep, FreeAutomorphism.from_spec("A=AB,B=B"), 5)
    whole = is_boundary_identity(rep, sample, m=3)
    monkeypatch.setattr(boundary, "_BOUND_BLOCK", 7)
    assert is_boundary_identity(rep, sample, m=3) == whole


def test_inner_search_prunes_the_octagon(monkeypatch):
    full = []
    residual = boundary._residual

    def counted(a, b, zout, unturn):
        if np.ndim(a) == 0:
            full.append(a)
        return residual(a, b, zout, unturn)

    monkeypatch.setattr(boundary, "_residual", counted)
    rep = octagon_group()
    sample = induced_boundary_sample(rep, FreeAutomorphism.from_spec(VERDICT_OPS[2][1]), 5)
    result = is_boundary_identity(rep, sample, m=3)
    assert str(result.best_inner) == "a"
    assert 1 + sum(len(level.a) for level in oracles.word_levels(rep, 3)) == 457
    assert 1 <= len(full) <= 16


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
    s_inv = induced_boundary_sample(cusped_torus, FreeAutomorphism.from_spec("A=Ab,B=B"), 6)
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


# -- the exact inner-automorphism oracle ---------------------------------------


@pytest.mark.parametrize("make_group", [
    pytest.param(cusped_torus_group, id="cusped-torus"),
    pytest.param(lambda: schottky_rank2(2.0), id="schottky2"),
])
def test_inner_automorphisms_are_boundary_identities(make_group):
    rep = make_group()
    conjugators = [GroupWord()] + [GroupWord.from_row(row)
                                   for level in words.shortlex_levels(2, 2) for row in level]
    assert len(conjugators) == 17
    for g in conjugators:
        phi = FreeAutomorphism.inner(2, g)
        assert oracles.inner_conjugator(phi.images, 2) == g
        result = is_boundary_identity(rep, induced_boundary_sample(rep, phi, 6), m=2)
        assert result.identity, g
        assert result.best_inner == g.inverse(), g
    # g = AB
    phi = FreeAutomorphism.from_spec("A=ABAba,B=ABa")
    result = is_boundary_identity(rep, induced_boundary_sample(rep, phi, 6), m=2)
    assert oracles.inner_conjugator(phi.images, 2) == W("AB")
    assert str(result.best_inner) == "ba" and result.residual < 1e-12


@pytest.mark.parametrize("make_group", [
    pytest.param(cusped_torus_group, id="cusped-torus"),
    pytest.param(lambda: schottky_rank2(2.0), id="schottky2"),
])
def test_random_automorphisms_agree_with_the_exact_inner_check(make_group):
    rep = make_group()
    rng = random.Random(20261018)
    rejected = 0
    for _ in range(30):
        phi = random_nielsen_automorphism(2, rng.randrange(1, 6), rng,
                                          max_total_image_length=8)
        g = oracles.inner_conjugator(phi.images, 2)
        result = is_boundary_identity(rep, induced_boundary_sample(rep, phi, 4), m=2)
        if g is None:
            rejected += 1
            assert not result.identity, phi.spec_string()
        else:
            assert result.identity and result.best_inner == g.inverse(), phi.spec_string()
    assert rejected >= 20
