"""Sampled circle-at-infinity maps of free-group automorphisms.

An automorphism phi of the generator set induces a map on the fixed
points of group elements at infinity: the attracting fixed point of w is
paired with the attracting fixed point of phi(w), one pair per primitive
conjugacy class (conjugates only give Mobius translates, powers their
roots' points).  The sampled map is checked for cyclic order consistency
and tested against the deck-transformation freedom to decide whether phi
acts as the identity at infinity up to an inner correction.
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
from hypsurf.text import circle_map_json, sample_csv
from hypsurf.words import (
    DEFAULT_WORD_BUDGET,
    GroupWord,
    _check_budget,
    _check_table,
    _letter_key,
    child_rows,
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


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class CircleMapSample:
    """Finite boundary-map sample: theta_in[i] maps to theta_out[i], and
    row i of ``letters`` (zero-padded int8, as in `EndpointSample`) is the
    class representative both came from.  theta_in is the net
    `disk.circle_net` keeps, strictly increasing.  ``orientation`` is
    `order_check` of it, "preserving", "reversing" or None, as
    `induced_boundary_sample` found it, and ``moves_homology`` is
    `moves_homology` of the sampled automorphism (False where none is
    known)."""

    theta_in: np.ndarray
    theta_out: np.ndarray
    letters: np.ndarray
    skipped: int = 0
    orientation: Optional[str] = None
    moves_homology: bool = False

    def __len__(self) -> int:
        return len(self.theta_in)

    def to_csv_rows(self):
        """The CSV text as chunks that concatenate to it (`text.sample_csv`)."""
        return sample_csv("theta_in,theta_out,word", (self.theta_in, self.theta_out),
                          self.letters)

    def to_json_rows(self):
        """The JSON text as chunks that concatenate to it (`text.circle_map_json`)."""
        return circle_map_json(self.theta_in, self.theta_out, self.letters, self.skipped)


#: the letter key + 1 of the int8 letter of each byte (``letters.view(np.uint8)``
#: indexes it), and the key + 1 of its inverse, key ^ 1; 0 for the padding
#: byte and for -128, which no rank reaches
_KEY1, _INVERSE_KEY1 = (
    np.array([(_letter_key(x) ^ flip) + 1 if -128 < x != 0 else 0
              for x in np.arange(256, dtype=np.uint8).view(np.int8).tolist()], dtype=np.uint8)
    for flip in (0, 1))


def conjugacy_class_words(rank: int, n: int) -> np.ndarray:
    """One cyclically reduced representative per primitive conjugacy class
    (modulo inversion) of length <= n, in shortlex order, as the rows of an
    int8 letter matrix zero-padded to width n.

    The representative is `GroupWord.conjugacy_class_rep`: the least
    rotation of the class's cyclically reduced words and their inverses.
    It is a necklace (least among its own rotations), so the word table
    is pruned level by level to prenecklaces, the prefixes of necklaces,
    by the Fredricksen-Kessler-Maiorana rule of constant-amortized-time
    necklace generation (Cattell, Ruskey, Sawada, Serra & Miers,
    J. Algorithms 37, 2000).  Each kept row carries the period p of its
    longest Lyndon prefix; a row of length t whose last letter, compared
    with the letter p places back, is smaller is dropped, equal keeps p,
    and larger makes the row Lyndon (p = t).  The empty word has p = 1,
    so level 1 takes the same step: each letter is compared with itself
    (t - 1 - p = -1) and kept, Lyndon.  A Lyndon row (a proper power
    has its root's fixed points) is a class representative when it is
    also cyclically reduced and no larger than the least rotation of its
    inverse.  Kept rows stay in table order, the order of first shortlex
    appearance of the classes.  The periods are held in the narrowest
    signed type that holds -1 and n, or `words.DEFAULT_WORD_BUDGET` if
    that is less: no level is longer than the rows the budget admits.

    Every kept level is grown (`child_rows`) before any representative is
    taken, and BudgetExceeded is raised before a level takes the rows
    generated, the empty word and the kept parents times their fan, past
    `words.DEFAULT_WORD_BUDGET`.
    """
    _check_table(rank, n)
    levels, periods = [], []
    # the signed types that hold -1 - m are those that hold -1 and m
    period = np.ones(1, dtype=np.min_scalar_type(-1 - min(n, DEFAULT_WORD_BUDGET)))
    level, generated = np.zeros((1, 0), dtype=np.int8), 1
    for t in range(1, n + 1):
        fan = 2 * rank - (t > 1)
        generated += len(level) * fan
        _check_budget(generated)
        level = child_rows(rank, level)
        # row i is a child of row i // fan of the kept level above
        period = np.repeat(period, fan)
        byte = level.view(np.uint8)
        key = _KEY1[byte[:, -1]]
        back = _KEY1[byte[np.arange(len(level)), t - 1 - period]]
        keep = key >= back
        period = np.where(key > back, t, period)[keep]
        # temporaries go as soon as they are spent: the copy of the kept
        # rows and the growth of the next level set the table's peak
        del byte, key, back
        level = level[keep]
        del keep
        levels.append(level)
        periods.append(period)
    reps = []
    while levels:
        # each level is dropped once its representatives are taken
        letters, period = levels.pop(0), periods.pop(0)
        t = letters.shape[1]
        rows = letters[(period == t) & (letters[:, 0] != -letters[:, -1])]
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


def moves_homology(rep: GroupRep, phi: FreeAutomorphism) -> bool:
    """Whether phi is known to act on H_1 of the group other than as the
    identity, so that no inner automorphism, which acts as the identity
    there, is phi.  H_1 is free abelian on the generators when every
    relator's exponent sums are 0, as for the free groups and the octagon
    group's relator; then phi acts as the identity exactly when each
    generator's image has that generator's exponent sums.  With another
    relator, phi is not known to move H_1."""
    def sums(w: GroupWord) -> list[int]:
        out = [0] * rep.rank
        for x in w.letters:
            out[abs(x) - 1] += 1 if x > 0 else -1
        return out

    if any(any(sums(r)) for r in rep.relators):
        return False
    return any(sums(w) != [int(j == i) for j in range(rep.rank)]
               for i, w in enumerate(phi.images))


def induced_boundary_sample(
    rep: GroupRep,
    phi: FreeAutomorphism,
    n: int,
) -> CircleMapSample:
    """Pair attracting fixed points of w with those of phi(w) over one
    word per primitive conjugacy class of length <= n.

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
    at TOL_ANGLE, so it carries no order information.  The kept outputs
    must wind once around the circle (`order_check`), or OrderViolation is
    raised; the sample carries the orientation found, and whether phi
    moves homology (`moves_homology`).
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
    return replace(sample, orientation=order_check(sample),
                   moves_homology=moves_homology(rep, phi))


def order_check(s: CircleMapSample) -> Optional[str]:
    """The orientation of the sampled map, "preserving" or "reversing", from
    its winding number: a homeomorphism of the circle has degree +-1.

    The outputs are read in theta_in order, cyclically, and each step to
    the next output is taken counterclockwise, in [0, 2 pi).  A step within
    TOL_ANGLE of 0 or 2 pi, the resolution of the theta_in net, is a tie
    with no direction and is not counted.  Each counted step adds one turn
    over the two directions, so of `counted` steps summing to `turns`
    whole turns counterclockwise, `counted - turns` turn clockwise.  With
    fewer than three counted steps the orientation is None; one turn
    counterclockwise is "preserving", one clockwise "reversing", and any
    other winding, a crossing or a map that winds twice, raises
    OrderViolation."""
    step = np.mod(np.roll(s.theta_out, -1) - s.theta_out, TWO_PI)
    step = step[(step > TOL_ANGLE) & (step < TWO_PI - TOL_ANGLE)]
    counted = len(step)
    if counted < 3:
        return None
    turns = round(float(step.sum()) / TWO_PI)
    if turns == 1:
        return "preserving"
    if turns == counted - 1:
        return "reversing"
    raise OrderViolation(
        f"sampled map is not cyclically order-consistent: its outputs turn {turns} "
        f"times counterclockwise and {counted - turns} times clockwise")


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
    (`_residual`) below tol, unless the sample's automorphism moves
    homology (`CircleMapSample.moves_homology`): an inner automorphism
    acts as the identity on H_1, and a finite sample can lie within tol
    of a few points that a map moving homology fixes.  u's matrix is read
    from the word table (`_word_blocks`), where it is known up to a
    positive scale, which the action ignores; so no entry bound limits the
    search.  The u whose residual is at most min(2 best, best + tol), a
    window that tol cannot resolve from the best, are reported as
    near-minimizers instead of pretending uniqueness.

    The search is an exact branch and bound.  Each u's lower bound is its
    residual over _BOUND_POINTS points spread over the sample, computed as
    one u x point broadcast per _BOUND_BLOCK rows of u.  u is visited in
    ascending bound order (stable sort) until a bound exceeds the window of
    the best residual so far; an unvisited u's residual is at least its
    bound, so it is neither the minimum nor a near-minimizer.  This rests
    on each bound being the max of the very floats the full pass computes
    at those points, not on a margin (an identity-like residual is about
    1e-17, all rounding): the broadcast runs the full pass's numpy loops,
    u's entries at stride 0 on the inner axis as a scalar's, and a test
    pins the two bit for bit.
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
    residuals, window = np.full(len(ua), np.inf), np.inf
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] > window:
            break
        residuals[i] = _residual(ua[i], ub[i], zout, unturn)
        window = min(window, 2.0 * residuals[i], residuals[i] + tol)
    best = int(np.argmin(residuals))  # the first minimum: shortlex wins ties
    best_res = float(residuals[best])
    return BoundaryIdentityResult(
        identity=best_res <= tol and not sample.moves_homology,
        best_inner=GroupWord.from_row(letters[best]),
        residual=best_res,
        near_minimizers=tuple(GroupWord.from_row(letters[i])
                              for i in np.flatnonzero(residuals <= window)),
        sample_size=len(sample),
        skipped=sample.skipped,
    )


def _residual(a, b, zout: np.ndarray, unturn: np.ndarray):
    """Max deviation of u's action on zout from exp(i theta_in) = 1/unturn,
    over the last axis: for one u, or for a (rows, 1) column of them.  An
    undefined deviation (a 0/0 or overflowed action) counts as pi, the
    largest an angle has: no such u passes a tol or beats the identity."""
    with np.errstate(all="ignore"):
        w = (a * zout + b) / (b.conjugate() * zout + a.conjugate()) * unturn
    # a max is NaN where any deviation is, and fmin(NaN, pi) is pi
    return np.fmin(np.abs(np.angle(w)).max(axis=-1), math.pi)


def _lower_bounds(ua: np.ndarray, ub: np.ndarray, zout: np.ndarray, unturn: np.ndarray):
    """The bound points' indices and every u's `_residual` over them."""
    k = min(_BOUND_POINTS, len(zout))
    at = np.arange(k) * len(zout) // k
    return at, np.concatenate([
        _residual(ua[i:i + _BOUND_BLOCK, None], ub[i:i + _BOUND_BLOCK, None],
                  zout[at], unturn[at])
        for i in range(0, len(ua), _BOUND_BLOCK)])
