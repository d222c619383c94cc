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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from hypsurf import pool
from hypsurf.disk import TOL_ANGLE, TWO_PI, circle_net
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
    _word_blocks,
    # unused here: perfbench's tracer and its tests rebind this copy too
    attracting_angle,
    attracting_angles,
)
from hypsurf.text import sample_csv
from hypsurf.words import (
    GroupWord,
    _letter_key,
    shortlex_levels,
    stack_padded,
    substitute,
    substitute_rows,
    word_table,
)

#: sampling aborts when more than this fraction of classes is skipped
MAX_SKIP_FRACTION = 0.5
#: default tolerance for the boundary-identity decision, radians
DEFAULT_IDENTITY_TOL = 1e-3
#: default inner-correction search depth
DEFAULT_SEARCH_DEPTH = 3
#: sample points behind each inner correction's lower bound, and inner
#: corrections bounded per broadcast (memory O(block x points))
_BOUND_POINTS, _BOUND_BLOCK = 16, 4096


@dataclass(frozen=True)
class FreeAutomorphism:
    """Endomorphism of the rank-k free group, generator i -> images[i].

    Construction checks only that the images use the k generators; that
    the map is an automorphism of a given group is certified where the
    group is known (`certify_automorphism`).
    """

    images: tuple[GroupWord, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if not images:
            raise InvalidInput("an automorphism needs a positive rank")
        for w in images:
            if w.max_index() > len(images):
                raise IndexOutOfRange(f"image {w} uses a generator outside rank {len(images)}")
        object.__setattr__(self, "images", images)

    @property
    def rank(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        return cls(tuple(GroupWord.generator(i) for i in range(rank)))

    @classmethod
    def inner(cls, rank: int, conjugator: GroupWord) -> "FreeAutomorphism":
        """w -> g w g^-1 for g the given conjugator."""
        ginv = conjugator.inverse()
        return cls(tuple(conjugator * GroupWord.generator(i) * ginv for i in range(rank)))

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
        return cls(tuple(assignments.get(i, GroupWord.generator(i)) for i in range(n)))

    def spec_string(self) -> str:
        return ",".join(
            f"{chr(ord('A') + i)}={w}" for i, w in enumerate(self.images)
        )

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other."""
        if self.rank != other.rank:
            raise InvalidInput("rank mismatch")
        return FreeAutomorphism(tuple(substitute(self.images, w) for w in other.images))


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
            x = GroupWord.generator(i)
            imgs = [GroupWord.generator(k) for k in range(rank)]
            imgs[i] = t * x if on_left else x * t
            phi = phi.compose(FreeAutomorphism(tuple(imgs)))
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
    `disk.circle_net` keeps, strictly increasing.  ``orientation`` is the
    `order_check` verdict `induced_boundary_sample` reached on it."""

    theta_in: np.ndarray
    theta_out: np.ndarray
    letters: np.ndarray
    skipped: int = 0
    orientation: Optional[str] = None

    def __len__(self) -> int:
        return len(self.theta_in)

    def to_csv_rows(self):
        """The CSV text as chunks that concatenate to it (`text.sample_csv`)."""
        return sample_csv("theta_in,theta_out,word", (self.theta_in, self.theta_out),
                          self.letters)


#: the letter key + 1 of the int8 letter of each byte (``letters.view(np.uint8)``
#: indexes it), and the key + 1 of its inverse, key ^ 1; 0 for the padding
#: byte and for -128, which no rank reaches
_KEY1, _INVERSE_KEY1 = (
    np.array([(_letter_key(x) ^ flip) + 1 if -128 < x != 0 else 0
              for x in np.arange(256, dtype=np.uint8).view(np.int8).tolist()], dtype=np.uint8)
    for flip in (0, 1))


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
    appearance of the classes.  The periods are held in the narrowest
    unsigned type that holds n.
    """
    periods: list[np.ndarray] = []

    def prenecklace(rows):
        t = rows.shape[1]
        if t == 1:
            periods.append(np.ones(len(rows), dtype=np.min_scalar_type(n)))
            return np.ones(len(rows), dtype=bool)
        # row i is a child of row i // fan of the kept level above
        period = np.repeat(periods[-1], 2 * rank - 1)
        byte = rows.view(np.uint8)
        key = _KEY1[byte[:, -1]]
        back = _KEY1[byte[np.arange(len(rows)), t - 1 - period]]
        keep = key >= back
        periods.append(np.where(key > back, t, period)[keep])
        return keep

    levels = shortlex_levels(rank, n, keep=prenecklace)
    reps = []
    while levels:
        # each level is dropped once its representatives are taken
        letters, period = levels.pop(0), periods.pop(0)
        t = letters.shape[1]
        rows = letters[(t % period == 0) & (letters[:, 0] != -letters[:, -1])]
        # letter keys + 1 as fixed-width byte strings, which compare
        # lexicographically (the + 1 keeps out NUL bytes, which numpy strips)
        byte = rows.view(np.uint8)
        word = _KEY1[byte].view(f"S{t}")[:, 0]
        inverse = np.tile(_INVERSE_KEY1[byte[:, ::-1]], 2)
        least = np.ones(len(rows), dtype=bool)
        for r in range(t):
            least &= word <= np.ascontiguousarray(inverse[:, r:r + t]).view(f"S{t}")[:, 0]
        reps.append(rows[least])
    return stack_padded(reps, n)


#: [A, B]: an endomorphism of F(A, B) is an automorphism if and only if it
#: maps the commutator to a conjugate of itself or of its inverse (Nielsen;
#: Magnus, Karrass & Solitar, Combinatorial Group Theory, 1966, section 3.5)
COMMUTATOR = GroupWord((1, 2, -1, -2))


def certify_automorphism(rep: GroupRep, phi: FreeAutomorphism) -> None:
    """Raise NotAnAutomorphism unless phi acts on the group of rep as an
    automorphism, decided exactly by one conjugacy test and no search.

    A group with relators tests them: each phi(r) must be conjugate to a
    relator or its inverse, so phi acts on the group.  With the one
    relator r of a closed surface group, every automorphism of the free
    group that acts on the surface group passes (Magnus: elements with
    the same normal closure are conjugate up to inversion), and a phi that
    passes acts as +-1 on H_2 (Hopf's formula), so it is onto, and surface
    groups are Hopfian: phi acts as an automorphism even where it is not
    one of the free group.  A free group of rank 2 tests the commutator
    the same way (`COMMUTATOR`).  A free group of any other rank has no
    such test and raises InvalidInput.
    """
    if rep.relators:
        tested, what = rep.relators, "a relator"
    elif rep.rank == 2:
        tested, what = (COMMUTATOR,), "the commutator"
    else:
        raise InvalidInput(
            f"automorphisms are certified for groups with relators and for the free "
            f"group of rank 2, not for the free group of rank {rep.rank}")
    classes = {w.conjugacy_class_rep() for w in tested}
    for w in tested:
        image = substitute(phi.images, w)
        if image.conjugacy_class_rep() not in classes:
            raise NotAnAutomorphism(
                f"{phi.spec_string()} is not an automorphism of the group: it maps {w} "
                f"to {image}, which is not conjugate to {what} or its inverse")


def induced_boundary_sample(
    rep: GroupRep,
    phi: FreeAutomorphism,
    n: int,
) -> CircleMapSample:
    """Pair attracting fixed points of w with those of phi(w) over one
    word per conjugacy class of length <= n.

    Each `pool.ordered_map` task takes `pool.BLOCK_ROWS` classes, their
    angles, their images under phi and the images' angles; a row's angles
    depend on its row alone, so the blocks move no bit.

    phi must be an automorphism of the group (`certify_automorphism`),
    or NotAnAutomorphism is raised.

    Classes whose element or image is not certifiably hyperbolic are
    skipped and counted; more than half skipped (all of them included)
    aborts with NumericFailure.  theta_in, theta_out and the words are
    indexed by the `disk.circle_net` of theta_in, as `limit_sample` indexes
    its angles and words: an entry the net drops is a tie with a kept one
    at TOL_ANGLE, so it carries no order information.  The kept entries
    must be cyclically order-consistent (`order_check`), or
    OrderViolation is raised; the sample carries the orientation found.
    """
    if n < 1:
        raise InvalidInput("induced_boundary_sample needs n >= 1")
    if phi.rank != rep.rank:
        raise InvalidInput(f"automorphism rank {phi.rank} != group rank {rep.rank}")
    certify_automorphism(rep, phi)
    classes = conjugacy_class_words(rep.rank, n)
    step = pool.BLOCK_ROWS

    def angles(lo: int) -> tuple[np.ndarray, np.ndarray]:
        block = classes[lo:lo + step]
        return (attracting_angles(rep, block),
                attracting_angles(rep, substitute_rows(phi.images, block)))

    tin, tout = map(np.concatenate, zip(*pool.ordered_map(angles, range(0, len(classes), step))))
    hyperbolic = ~(np.isnan(tin) | np.isnan(tout))
    skipped = len(classes) - int(np.count_nonzero(hyperbolic))
    if skipped > MAX_SKIP_FRACTION * len(classes):
        raise NumericFailure(
            f"{skipped} of {len(classes)} classes skipped as non-hyperbolic; "
            "representation data looks wrong"
        )
    tin, tout, classes = tin[hyperbolic], tout[hyperbolic], classes[hyperbolic]
    net = circle_net(tin)
    sample = CircleMapSample(tin[net], tout[net], classes[net], skipped)
    verdict = order_check(sample)
    if verdict.violation is not None:
        raise OrderViolation(
            "sampled map is not cyclically order-consistent",
            triple=verdict.violation,
        )
    return replace(sample, orientation=verdict.orientation)


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
    Only decided triples count, and with none (fewer than three points
    included) the orientation is None."""
    m = len(s)
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
    (`_word_blocks`), where it is known up to a positive scale, which the
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
    # a residual is an angle in [0, pi], so a tol of pi or more passes every map
    if not 0.0 <= tol < math.pi:
        raise InvalidInput(f"identity tolerance must lie in [0, pi), got {tol!r}")
    if not len(sample):
        raise TooFewPoints("the inner-correction search needs a nonempty sample")
    zout = np.exp(1j * sample.theta_out)
    unturn = np.exp(-1j * sample.theta_in)
    # the identity row, then the table in shortlex order, zero-padded to m
    letters = word_table(rep.rank, m)
    blocks = list(_word_blocks(rep, letters))
    ua = np.concatenate([[1.0 + 0j]] + [block.a for block in blocks])
    ub = np.concatenate([[0j]] + [block.b for block in blocks])
    _, bounds = _lower_bounds(ua, ub, zout, unturn)
    residuals, best_res = np.full(len(ua), np.inf), np.inf
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] > 2.0 * best_res:
            break
        residuals[i] = _residual(ua[i], ub[i], zout, unturn)
        best_res = min(best_res, residuals[i])
    best = int(np.argmin(residuals))  # the first minimum: shortlex wins ties
    best_res = float(residuals[best])
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
