"""Sampled circle-at-infinity maps of free-group automorphisms.

An automorphism phi of the generator set induces a map on the fixed
points of group elements at infinity: the attracting fixed point of w is
paired with the attracting fixed point of phi(w), one pair per conjugacy
class (conjugate words only contribute Mobius translates).  The sampled
map is checked for cyclic order consistency and tested against the
deck-transformation freedom to decide whether phi acts as the identity
at infinity up to an inner correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from hypsurf.disk import TOL_ANGLE, TWO_PI, angle_distance, circle_net
from hypsurf.errors import (
    IndexOutOfRange,
    InvalidInput,
    NotAnAutomorphism,
    NumericFailure,
    OrderViolation,
    TooFewPoints,
)
from hypsurf.groups import (
    GroupRep,
    _word_levels,
    # unused here: perfbench's tracer and its tests rebind this copy too
    attracting_angle,
    attracting_angles,
)
from hypsurf.text import sample_csv
from hypsurf.words import (
    GroupWord,
    _letter_key,
    compose_images,
    invert_images,
    shortlex_levels,
    substitute,
    substitute_rows,
)

#: sampling aborts when more than this fraction of classes is skipped
MAX_SKIP_FRACTION = 0.5
#: default tolerance for the boundary-identity decision, radians
DEFAULT_IDENTITY_TOL = 1e-3
#: default inner-correction search depth
DEFAULT_SEARCH_DEPTH = 3
#: theta_out disagreement allowed between colliding theta_in entries
OUT_CONSISTENCY_TOL = 1e-7
#: sample points behind each inner correction's lower bound, and inner
#: corrections bounded per broadcast (memory O(block x points))
_BOUND_POINTS, _BOUND_BLOCK = 16, 4096


@dataclass(frozen=True)
class FreeAutomorphism:
    """Automorphism of the rank-k free group, images and inverse images.

    Construction verifies that the two maps compose to the identity in
    both orders, letter for letter.
    """

    images: tuple[GroupWord, ...]
    inverse_images: tuple[GroupWord, ...]

    def __post_init__(self):
        images = tuple(self.images)
        inv = tuple(self.inverse_images)
        if len(images) != len(inv) or not images:
            raise InvalidInput("images and inverse_images must have equal positive rank")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "inverse_images", inv)
        for i in range(len(images)):
            x = GroupWord.generator(i)
            if substitute(images, inv[i]) != x or substitute(inv, images[i]) != x:
                raise InvalidInput(
                    "images and inverse_images do not compose to the identity"
                )

    @property
    def rank(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        gens = tuple(GroupWord.generator(i) for i in range(rank))
        return cls(gens, gens)

    @classmethod
    def inner(cls, rank: int, conjugator: GroupWord) -> "FreeAutomorphism":
        """w -> g w g^-1 for g the given conjugator."""
        ginv = conjugator.inverse()
        return cls(
            tuple(conjugator * GroupWord.generator(i) * ginv for i in range(rank)),
            tuple(ginv * GroupWord.generator(i) * conjugator for i in range(rank)),
        )

    @classmethod
    def from_images(cls, images: Sequence[GroupWord]) -> "FreeAutomorphism":
        """Build from images alone; the inverse is found by Whitehead
        reduction (raises NotAnAutomorphism if there is none)."""
        images = tuple(images)
        return cls(images, invert_images(images))

    @classmethod
    def from_spec(cls, spec: str, rank: Optional[int] = None) -> "FreeAutomorphism":
        """Parse "A=AB,B=B" (capitals generators, lowercase inverses)."""
        assignments: dict[int, GroupWord] = {}
        for part in spec.split(","):
            if "=" not in part:
                raise InvalidInput(f"bad automorphism assignment {part!r}")
            lhs, rhs = part.split("=", 1)
            lhs = lhs.strip()
            if len(lhs) != 1 or not lhs.isupper():
                raise InvalidInput(f"assignment target must be a single generator, got {lhs!r}")
            idx = ord(lhs) - ord("A")
            if rank is not None and idx >= rank:
                raise IndexOutOfRange(f"generator {lhs} outside rank {rank}")
            if idx in assignments:
                raise InvalidInput(f"generator {lhs} assigned twice")
            assignments[idx] = GroupWord.from_string(rhs.strip())
        n = rank if rank is not None else (max(assignments) + 1 if assignments else 0)
        if n < 1:
            raise InvalidInput("empty automorphism spec")
        images = tuple(
            assignments.get(i, GroupWord.generator(i)) for i in range(n)
        )
        return cls.from_images(images)

    def spec_string(self) -> str:
        return ",".join(
            f"{chr(ord('A') + i)}={w}" for i, w in enumerate(self.images)
        )

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other."""
        if self.rank != other.rank:
            raise InvalidInput("rank mismatch")
        return FreeAutomorphism(
            compose_images(self.images, other.images),
            compose_images(other.inverse_images, self.inverse_images),
        )


def random_nielsen_automorphism(
    rank: int,
    n_moves: int,
    rng,
    max_total_image_length: Optional[int] = None,
) -> FreeAutomorphism:
    """Composition of n_moves random transvections x_i -> x_i x_j^+-1 or
    x_j^+-1 x_i.

    Transvections are the orientation-preserving elementary moves (their
    abelianizations have determinant one), so the induced boundary maps
    of the resulting automorphisms preserve the cyclic order.  With
    ``max_total_image_length`` set, compositions whose images exceed it
    are redrawn: unboundedly long images push the sampled fixed points
    deeper into the boundary set than double precision can separate.
    """
    if rank < 2:
        raise InvalidInput("transvections need rank >= 2")
    while True:
        phi = FreeAutomorphism.identity(rank)
        for _ in range(n_moves):
            i = rng.randrange(rank)
            j = rng.randrange(rank - 1)
            if j >= i:
                j += 1
            sign = rng.choice((1, -1))
            on_left = rng.choice((False, True))
            t = GroupWord.generator(j, sign)
            imgs = [GroupWord.generator(k) for k in range(rank)]
            invs = [GroupWord.generator(k) for k in range(rank)]
            if on_left:
                imgs[i] = t * GroupWord.generator(i)
                invs[i] = t.inverse() * GroupWord.generator(i)
            else:
                imgs[i] = GroupWord.generator(i) * t
                invs[i] = GroupWord.generator(i) * t.inverse()
            phi = phi.compose(FreeAutomorphism(tuple(imgs), tuple(invs)))
        total = sum(len(w) for w in phi.images)
        if max_total_image_length is None or total <= max_total_image_length:
            return phi


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class CircleMapSample:
    """Finite boundary-map sample: theta_in[i] maps to theta_out[i], and
    row i of ``letters`` (zero-padded int8, as in `EndpointSample`) is the
    class representative both came from.  theta_in is the net
    `disk.circle_net` keeps, strictly increasing."""

    theta_in: np.ndarray
    theta_out: np.ndarray
    letters: np.ndarray
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.theta_in)

    def to_csv_rows(self):
        """The CSV text as chunks that concatenate to it (`text.sample_csv`)."""
        return sample_csv("theta_in,theta_out,word", (self.theta_in, self.theta_out),
                          self.letters)


def conjugacy_class_words(rank: int, n: int) -> np.ndarray:
    """One cyclically reduced representative per conjugacy class (modulo
    inversion) of length <= n, in shortlex order, as the rows of an int8
    letter matrix zero-padded to width n.

    The representative is `GroupWord.conjugacy_class_rep`: the least
    rotation of the class's cyclically reduced words and their inverses.
    It is a necklace (least among its own rotations), so the word table
    is pruned level by level to prenecklaces, the prefixes of necklaces,
    by the Fredricksen-Kessler-Maiorana rule of constant-amortized-time
    necklace generation (Cattell, Ruskey, Sawada, Serra & Miers,
    J. Algorithms 37, 2000).  Each kept row carries the period p of its
    longest Lyndon prefix; a row of length t whose last letter, compared
    with the letter p places back, is smaller is dropped, equal keeps p,
    and larger makes the row Lyndon (p = t).  A row is a necklace when
    t % p == 0, and a class representative when it is also cyclically
    reduced and no larger than the least rotation of its inverse.  Kept
    rows stay in table order, which is the order of first shortlex
    appearance of the classes.
    """
    periods: list[np.ndarray] = []

    def prenecklace(rows, parent):
        if parent is None:
            periods.append(np.ones(len(rows), dtype=np.intp))
            return np.ones(len(rows), dtype=bool)
        t = rows.shape[1]
        period = periods[-1][parent]
        key = _letter_key(rows[:, -1].astype(np.intp))
        back = _letter_key(rows[np.arange(len(rows)), t - 1 - period].astype(np.intp))
        keep = key >= back
        periods.append(np.where(key > back, t, period)[keep])
        return keep

    levels = shortlex_levels(rank, n, keep=prenecklace)
    reps = [np.zeros((0, n), dtype=np.int8)]
    for letters, period in zip(levels, periods):
        t = letters.shape[1]
        rows = letters[(t % period == 0) & (letters[:, 0] != -letters[:, -1])]
        # letter keys + 1 as fixed-width byte strings, which compare
        # lexicographically (the + 1 keeps out NUL bytes, which numpy strips)
        keys = _letter_key(rows.astype(np.intp)).astype(np.uint8)
        word = (keys + 1).view(f"S{t}")[:, 0]
        inverse = np.tile((keys[:, ::-1] ^ 1) + 1, 2)
        least = np.logical_and.reduce([
            word <= np.ascontiguousarray(inverse[:, r:r + t]).view(f"S{t}")[:, 0]
            for r in range(t)])
        reps.append(np.pad(rows[least], ((0, 0), (0, n - t))))
    return np.vstack(reps)


def induced_boundary_sample(
    rep: GroupRep,
    phi: FreeAutomorphism,
    n: int,
) -> CircleMapSample:
    """Pair attracting fixed points of w with those of phi(w) over one
    word per conjugacy class of length <= n.

    phi must act on the group: w -> phi(w) is well defined there when phi
    maps every relator into their normal closure.  The test made is that
    each phi(r) is conjugate to some relator or its inverse, otherwise
    NotAnAutomorphism is raised.  With one relator this is also necessary
    (Magnus: elements of a free group with the same normal closure are
    conjugate up to inversion); with more relators it is sufficient but
    not necessary.  A free group (no relators) takes every phi.

    Classes whose element or image is not certifiably hyperbolic are
    skipped and counted; more than half skipped (all of them included)
    aborts with NumericFailure.  The sample is reduced to the
    `disk.circle_net` of theta_in, and an entry the net drops must agree
    on theta_out, within OUT_CONSISTENCY_TOL, with the kept entry it
    collides with.  The whole sample must be cyclically order-consistent.
    """
    if n < 1:
        raise InvalidInput("induced_boundary_sample needs n >= 1")
    if phi.rank != rep.rank:
        raise InvalidInput(f"automorphism rank {phi.rank} != group rank {rep.rank}")
    relator_classes = {r.conjugacy_class_rep() for r in rep.relators}
    for r in rep.relators:
        image = substitute(phi.images, r)
        if image.conjugacy_class_rep() not in relator_classes:
            raise NotAnAutomorphism(
                f"{phi.spec_string()} does not act on the group: it maps the relator {r} "
                f"to {image}, which is not conjugate to a relator or its inverse")
    classes = conjugacy_class_words(rep.rank, n)
    tin = attracting_angles(rep, classes)
    tout = attracting_angles(rep, substitute_rows(phi.images, classes))
    hyperbolic = ~(np.isnan(tin) | np.isnan(tout))
    skipped = len(classes) - int(np.count_nonzero(hyperbolic))
    if skipped > MAX_SKIP_FRACTION * len(classes):
        raise NumericFailure(
            f"{skipped} of {len(classes)} classes skipped as non-hyperbolic; "
            "representation data looks wrong"
        )
    tin, tout, letters = _dedup_on_circle(tin[hyperbolic], tout[hyperbolic],
                                          classes[hyperbolic])
    sample = CircleMapSample(tin, tout, letters, skipped)
    if len(sample) >= 3:
        verdict = order_check(sample)
        if verdict.violation is not None:
            raise OrderViolation(
                "sampled map is not cyclically order-consistent",
                triple=verdict.violation,
            )
    return sample


def _dedup_on_circle(tin: np.ndarray, tout: np.ndarray, letters: np.ndarray):
    """Reduce a sampled map to the `disk.circle_net` of theta_in.  Each
    dropped entry must agree on theta_out with the last kept entry before
    it, and each folded entry with the first, or OrderViolation is raised."""
    order, keep, end = circle_net(tin)
    tin, tout, letters = tin[order], tout[order], letters[order]
    kept, dropped = np.flatnonzero(keep), np.flatnonzero(~keep)
    owner = kept[np.searchsorted(kept, dropped) - 1]
    clash = np.flatnonzero(angle_distance(tout[dropped], tout[owner]) > OUT_CONSISTENCY_TOL)
    if len(clash):
        i, j = dropped[clash[0]], owner[clash[0]]
        kept_word, dropped_word = GroupWord.from_row(letters[j]), GroupWord.from_row(letters[i])
        raise OrderViolation(
            f"colliding inputs map to distinct outputs ({kept_word} vs {dropped_word})",
            triple=((float(tin[j]), float(tout[j])), (float(tin[i]), float(tout[i]))),
        )
    kept, folded = kept[:end], kept[end:]
    clash = folded[angle_distance(tout[folded], tout[0]) > OUT_CONSISTENCY_TOL]
    if len(clash):
        j = clash[-1]
        raise OrderViolation(
            "colliding inputs map to distinct outputs at the wraparound",
            triple=((float(tin[j]), float(tout[j])), (float(tin[0]), float(tout[0]))),
        )
    return tin[kept], tout[kept], letters[kept]


@dataclass(frozen=True)
class OrderCheckResult:
    orientation: Optional[str]  # "preserving" | "reversing" | None
    violation: Optional[tuple] = None


def order_check(s: CircleMapSample) -> OrderCheckResult:
    """Scan consecutive output triples for a constant cyclic orientation:
    (a, b, c) is positively ordered when b comes before c going
    counterclockwise from a.

    A triple is decided only when each pair of its outputs is more than
    TOL_ANGLE apart on the circle, the resolution of the theta_in net:
    closer outputs are a tie at double resolution with no orientation.
    Only decided triples count, and with none the orientation is None."""
    m = len(s)
    if m < 3:
        raise TooFewPoints("order check needs at least 3 sample points")
    a = s.theta_out
    d1, d2 = np.mod(np.roll(a, -1) - a, TWO_PI), np.mod(np.roll(a, -2) - a, TWO_PI)
    # apart[i]: outputs i and i + 1 are more than TOL_ANGLE apart on the circle
    apart = (d1 > TOL_ANGLE) & (d1 < TWO_PI - TOL_ANGLE)
    decided = apart & np.roll(apart, -1) & (d2 > TOL_ANGLE) & (d2 < TWO_PI - TOL_ANGLE)
    positive = d1 < d2
    signs = positive[decided]
    if not len(signs):
        return OrderCheckResult(None)
    if signs.all():
        return OrderCheckResult("preserving")
    if not signs.any():
        return OrderCheckResult("reversing")
    i = int(np.argmax(decided & (positive != signs[0])))
    triple = tuple(
        (float(s.theta_in[j]), float(s.theta_out[j])) for j in ((i + k) % m for k in range(3))
    )
    return OrderCheckResult(None, violation=triple)


@dataclass(frozen=True)
class BoundaryIdentityResult:
    identity: bool
    best_inner: GroupWord
    residual: float
    near_minimizers: tuple[GroupWord, ...]
    sample_size: int
    skipped: int

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "best_inner": str(self.best_inner),
            "residual": self.residual,
            "near_minimizers": [str(w) for w in self.near_minimizers],
            "sample_size": self.sample_size,
            "skipped": self.skipped,
        }


def is_boundary_identity(
    rep: GroupRep,
    sample: CircleMapSample,
    m: int = DEFAULT_SEARCH_DEPTH,
    tol: float = DEFAULT_IDENTITY_TOL,
) -> BoundaryIdentityResult:
    """Decide whether the automorphism behind a sampled circle map (see
    `induced_boundary_sample`) fixes the sampled boundary pointwise up to
    the deck-transformation freedom.

    The freedom is exactly an inner correction: the sample's outputs are
    post-composed with the Mobius action of u over all words u of length
    <= m, and the map passes if some u brings the max angular deviation
    (`_residual`) below tol.  u's matrix is read from the word table
    (`_word_levels`), where it is known up to a positive scale, which the
    action ignores; so no entry bound limits the search.  Ties within
    twice the best residual are reported as near-minimizers instead of
    pretending uniqueness.

    The search is an exact branch and bound.  Each u's lower bound is its
    residual over _BOUND_POINTS points spread over the sample, computed as
    one u x point broadcast per _BOUND_BLOCK rows of u.  u is visited in
    ascending bound order (stable sort) until a bound exceeds twice the
    best residual so far; an unvisited u's residual is at least its bound,
    so it is neither the minimum nor a near-minimizer.  This rests on each
    bound being the max of the very floats the full pass computes at those
    points, not on a margin (an identity-like residual is about 1e-17, all
    rounding): the broadcast runs the full pass's numpy loops, u's entries
    at stride 0 on the inner axis as a scalar's, and a test pins the two
    bit for bit.
    """
    if m < 0:
        raise InvalidInput("search depth must be nonnegative")
    if not tol >= 0.0:
        raise InvalidInput(f"identity tolerance must be a nonnegative number, got {tol!r}")
    if not len(sample):
        raise TooFewPoints("the inner-correction search needs a nonempty sample")
    zout = np.exp(1j * sample.theta_out)
    unturn = np.exp(-1j * sample.theta_in)
    # the identity row, then the table in shortlex order, zero-padded to m
    levels = _word_levels(rep, m)
    ua = np.concatenate([[1.0 + 0j]] + [level.a for level in levels])
    ub = np.concatenate([[0j]] + [level.b for level in levels])
    _, bounds = _lower_bounds(ua, ub, zout, unturn)
    residuals, best_res = np.full(len(ua), np.inf), np.inf
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] > 2.0 * best_res:
            break
        residuals[i] = _residual(ua[i], ub[i], zout, unturn)
        best_res = min(best_res, residuals[i])
    best = int(np.argmin(residuals))  # the first minimum: shortlex wins ties
    best_res = float(residuals[best])
    letters = np.vstack([np.zeros((1, m), dtype=np.int8)] + [
        np.pad(level.letters, ((0, 0), (0, m - level.letters.shape[1]))) for level in levels])
    return BoundaryIdentityResult(
        identity=best_res <= tol,
        best_inner=GroupWord.from_row(letters[best]),
        residual=best_res,
        near_minimizers=tuple(GroupWord.from_row(letters[i])
                              for i in np.flatnonzero(residuals <= 2.0 * best_res)),
        sample_size=len(sample),
        skipped=sample.skipped,
    )


def _residual(a, b, zout: np.ndarray, unturn: np.ndarray):
    """Max deviation of u's action on zout from exp(i theta_in) = 1/unturn,
    over the last axis: for one u, or for a (rows, 1) column of them."""
    w = (a * zout + b) / (b.conjugate() * zout + a.conjugate())
    return np.abs(np.angle(w * unturn)).max(axis=-1)


def _lower_bounds(ua: np.ndarray, ub: np.ndarray, zout: np.ndarray, unturn: np.ndarray):
    """The bound points' indices and every u's `_residual` over them."""
    k = min(_BOUND_POINTS, len(zout))
    at = np.arange(k) * len(zout) // k
    return at, np.concatenate([
        _residual(ua[i:i + _BOUND_BLOCK, None], ub[i:i + _BOUND_BLOCK, None],
                  zout[at], unturn[at])
        for i in range(0, len(ua), _BOUND_BLOCK)])
