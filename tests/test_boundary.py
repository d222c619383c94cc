import math
import random

import numpy as np
import pytest

from hypsurf.boundary import (
    CircleMapSample,
    FreeAutomorphism,
    conjugacy_class_words,
    continuity_profile,
    induced_boundary_sample,
    is_boundary_identity,
    order_check,
    random_nielsen_automorphism,
)
from hypsurf.disk import (
    DiskPoint,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    apply,
    translation_along,
)
from hypsurf.errors import (
    InvalidInput,
    NotAnAutomorphism,
    NumericFailure,
    OrderViolation,
    TooFewPoints,
)
from hypsurf.groups import GroupRep, evaluate, schottky_rank2
from hypsurf.words import GroupWord, enumerate_reduced_words

W = GroupWord.from_string


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
    assert comp.apply(W("A")) == phi.apply(psi.apply(W("A")))
    assert comp.compose(comp.invert()).images == FreeAutomorphism.identity(2).images
    inner = FreeAutomorphism.inner(2, W("AB"))
    assert inner.apply(W("B")) == W("AB") * W("B") * W("ba")


# -- sampling ------------------------------------------------------------------


def test_identity_sample_is_diagonal(octagon):
    s = induced_boundary_sample(octagon, FreeAutomorphism.identity(4), 3)
    assert len(s) >= 50
    assert s.skipped == 0
    assert np.max(np.abs(s.theta_in() - s.theta_out())) < 1e-10
    tin = s.theta_in()
    assert np.all(np.diff(tin) > 0)


def test_inner_sample_matches_mobius_action(octagon):
    g = W("A")
    phi = FreeAutomorphism.inner(4, g)
    s = induced_boundary_sample(octagon, phi, 4)
    assert len(s) >= 100
    ga = evaluate(octagon, g)
    predicted = np.array(
        [apply(ga, IdealPoint(float(t))).theta for t in s.theta_in()]
    )
    dev = np.abs(np.angle(np.exp(1j * (predicted - s.theta_out()))))
    assert dev.max() < 1e-6


def test_sample_skips_parabolic_classes(cusped_torus):
    phi = FreeAutomorphism.identity(2)
    s = induced_boundary_sample(cusped_torus, phi, 4)
    assert s.skipped == 1  # the commutator class bounds the cusp


def test_sample_empty_when_nothing_hyperbolic():
    # rotations about a common center: every word is elliptic
    from hypsurf.errors import EmptySample

    rep = GroupRep((MobiusIsometry.rotation(1.0), MobiusIsometry.rotation(2.0)))
    with pytest.raises(EmptySample):
        induced_boundary_sample(rep, FreeAutomorphism.identity(2), 2)


def test_sample_loud_failure_on_majority_skips():
    def rot_about(p, theta):
        t = MobiusIsometry.point_to_origin(DiskPoint(p))
        return t.inverse().compose(MobiusIsometry.rotation(theta)).compose(t)

    rep = GroupRep((MobiusIsometry.rotation(2.0), rot_about(0.7, 2.0)))
    with pytest.raises(NumericFailure):
        induced_boundary_sample(rep, FreeAutomorphism.identity(2), 2)


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


def _class_words_by_definition(rank, n):
    # the cyclically reduced words of the tree in shortlex order, deduped
    # on the scalar class representative, first of each kept
    seen, reps = set(), []
    for w in enumerate_reduced_words(rank, n):
        if w.is_identity() or not w.is_cyclically_reduced():
            continue
        rep = w.conjugacy_class_rep()
        if rep.letters not in seen:
            seen.add(rep.letters)
            reps.append(rep)
    return reps


# (1, 70): (2k)^L passes int64 there, so packed codes must not wrap
@pytest.mark.parametrize("rank, n", [(1, 70), *((2, n) for n in range(1, 10)), (3, 6), (4, 5)])
def test_conjugacy_class_words_counts(rank, n):
    reps = conjugacy_class_words(rank, n)
    assert reps == _class_words_by_definition(rank, n)
    assert all(w.is_cyclically_reduced() for w in reps)
    if (rank, n) == (2, 2):
        # {A}, {B}, {AB}, {Ab}, {AA}, {BB}
        assert len(reps) == 6


# -- order_check ----------------------------------------------------------------


def test_order_check_identity_preserving(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    assert order_check(s).orientation == "preserving"


def test_order_check_reflection_reversing(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    reflected = CircleMapSample(
        tuple((tin, (-tout) % (2 * math.pi), w) for tin, tout, w in s.pairs)
    )
    assert order_check(reflected).orientation == "reversing"


def test_order_check_violation_lists_triple(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    pl = list(s.pairs)
    pl[2] = (pl[2][0], s.pairs[5][1], pl[2][2])
    pl[5] = (pl[5][0], s.pairs[2][1], pl[5][2])
    verdict = order_check(CircleMapSample(tuple(pl)))
    assert verdict.orientation is None
    assert verdict.violation is not None and len(verdict.violation) == 3


def test_order_check_needs_three_points(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    with pytest.raises(TooFewPoints):
        order_check(CircleMapSample(s.pairs[:2]))


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
    assert r.best_inner.is_identity()
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


def test_near_minimizers_reported(cusped_torus):
    sample = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    r = is_boundary_identity(cusped_torus, sample, m=0)
    assert r.near_minimizers == (GroupWord(),)
    assert r.to_json()["best_inner"] == "1"


# -- continuity_profile ---------------------------------------------------------


def test_continuity_profile_identity(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    rep = continuity_profile(s)
    gin = np.array([p[0] for p in rep.gap_pairs])
    gout = np.array([p[1] for p in rep.gap_pairs])
    assert np.allclose(gin, gout, atol=1e-10)
    assert rep.max_gap_in == rep.max_image_gap


def test_continuity_profile_inner_derivative_bound(octagon):
    g = W("B")
    phi = FreeAutomorphism.inner(4, g)
    s = induced_boundary_sample(octagon, phi, 3)
    rep = continuity_profile(s)
    ga = evaluate(octagon, g)
    # extreme boundary derivative of the correcting Mobius map
    deriv_max = 1.0 / (abs(ga.a) - abs(ga.b)) ** 2
    assert rep.max_image_gap <= deriv_max * rep.max_gap_in * (1 + 1e-9)


def test_continuity_profile_gap_sums():
    rng = random.Random(4)
    phi = random_nielsen_automorphism(2, 4, rng, max_total_image_length=8)
    s = induced_boundary_sample(schottky_rank2(2.0), phi, 4)
    rep = continuity_profile(s)
    gin = sum(p[0] for p in rep.gap_pairs)
    gout = sum(p[1] for p in rep.gap_pairs)
    assert gin == pytest.approx(2 * math.pi, abs=1e-9)
    assert gout == pytest.approx(2 * math.pi, abs=1e-9)
    assert all(p[1] > 0 for p in rep.gap_pairs)


def test_continuity_profile_needs_four(cusped_torus):
    s = induced_boundary_sample(cusped_torus, FreeAutomorphism.identity(2), 4)
    with pytest.raises(TooFewPoints):
        continuity_profile(CircleMapSample(s.pairs[:3]))


# -- functoriality and inverses ----------------------------------------------------


def test_sample_functoriality(cusped_torus):
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    psi = FreeAutomorphism.from_spec("A=A,B=BA")
    comp = phi.compose(psi)
    s_comp = induced_boundary_sample(cusped_torus, comp, 4)
    # pointwise composition: map theta through psi's sample then phi's via
    # the defining fixed-point recipe
    from hypsurf.groups import attracting_angle

    for tin, tout, w in s_comp.pairs:
        step = attracting_angle(cusped_torus, psi.apply(w))
        final = attracting_angle(cusped_torus, phi.apply(psi.apply(w)))
        assert step is not None and final is not None
        dev = abs(final - tout) % (2 * math.pi)
        assert min(dev, 2 * math.pi - dev) < 1e-6


def test_sample_inverse_reverses_pairs(cusped_torus):
    phi = FreeAutomorphism.from_spec("A=AB,B=B")
    s = induced_boundary_sample(cusped_torus, phi, 4)
    s_inv = induced_boundary_sample(cusped_torus, phi.invert(), 6)
    forward = {}
    for tin, tout, w in s.pairs:
        forward[round(tin, 9)] = tout
    hits = 0
    for tin, tout, w in s_inv.pairs:
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
