"""Sampled circle-at-infinity maps of free-group automorphisms.

An automorphism phi of the generator set induces a map on the fixed
points of group elements at infinity: the attracting fixed point of w is
paired with the attracting fixed point of phi(w), one pair per conjugacy
class (conjugate words only contribute Mobius translates).  The sampled
map is checked for cyclic order consistency, profiled for continuity,
and tested against the deck-transformation freedom to decide whether phi
acts as the identity at infinity up to an inner correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from hypsurf.disk import TOL_ANGLE
from hypsurf.errors import (
    EmptySample,
    InvalidInput,
    NumericFailure,
    OrderViolation,
    TooFewPoints,
)
from hypsurf.groups import GroupRep, attracting_angle, evaluate
from hypsurf.words import (
    DEFAULT_WORD_BUDGET,
    GroupWord,
    _letter_key,
    compose_images,
    enumerate_reduced_words,
    invert_images,
    shortlex_levels,
    substitute,
)

TWO_PI = 2.0 * math.pi

#: sampling aborts when more than this fraction of classes is skipped
MAX_SKIP_FRACTION = 0.5
#: default tolerance for the boundary-identity decision, radians
DEFAULT_IDENTITY_TOL = 1e-3
#: default inner-correction search depth
DEFAULT_SEARCH_DEPTH = 3
#: theta_out disagreement allowed between colliding theta_in entries
OUT_CONSISTENCY_TOL = 1e-7


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

    def apply(self, w: GroupWord) -> GroupWord:
        return substitute(self.images, w)

    def compose(self, other: "FreeAutomorphism") -> "FreeAutomorphism":
        """self after other."""
        if self.rank != other.rank:
            raise InvalidInput("rank mismatch")
        return FreeAutomorphism(
            compose_images(self.images, other.images),
            compose_images(other.inverse_images, self.inverse_images),
        )

    def invert(self) -> "FreeAutomorphism":
        return FreeAutomorphism(self.inverse_images, self.images)


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
    """Finite boundary-map sample: (theta_in, theta_out, provenance word),
    sorted by theta_in, theta_in strictly increasing after dedup."""

    pairs: tuple[tuple[float, float, GroupWord], ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)

    def theta_in(self) -> np.ndarray:
        return np.array([p[0] for p in self.pairs])

    def theta_out(self) -> np.ndarray:
        return np.array([p[1] for p in self.pairs])

    def to_csv_rows(self):
        yield "theta_in,theta_out,word"
        for tin, tout, w in self.pairs:
            yield f"{tin:.17g},{tout:.17g},{w}"

    def to_json(self) -> dict:
        return {
            "pairs": [
                {"theta_in": tin, "theta_out": tout, "word": str(w)}
                for tin, tout, w in self.pairs
            ],
            "skipped": self.skipped,
        }


def conjugacy_class_words(rank: int, n: int,
                          budget: int = DEFAULT_WORD_BUDGET) -> list[GroupWord]:
    """One cyclically reduced representative per conjugacy class (modulo
    inversion) of length <= n, in order of first shortlex appearance.

    The representative is `GroupWord.conjugacy_class_rep`: the least
    rotation of a cyclically reduced row of the word table or of its
    inverse, compared as packed codes (letter keys as base-2k digits).
    A class first appears at its cyclically reduced length, so classes
    are deduplicated level by level.
    """
    levels = shortlex_levels(rank, n, budget)
    base = 2 * rank
    reps: list[GroupWord] = []
    for letters in levels:
        length = letters.shape[1]
        # exact Python integers once a code could outgrow int64
        dtype = np.int64 if base**length <= 2**63 else object
        cyclic = letters[letters[:, 0] != -letters[:, -1]]
        keys = _letter_key(cyclic.astype(np.intp)).astype(dtype)
        powers = np.array([base**p for p in range(length - 1, -1, -1)], dtype=dtype)
        best = None
        for word in (keys, keys[:, ::-1] ^ 1):
            code = word @ powers
            for r in range(length):
                best = code if best is None else np.minimum(best, code)
                # next rotation: the leading letter moves to the end
                code = (code - word[:, r] * powers[0]) * base + word[:, r]
        _, first = np.unique(best, return_index=True)
        digits = best[np.sort(first), None] // powers % base
        # level 1 is the alphabet in key order
        reps.extend(GroupWord(tuple(w)) for w in levels[0][digits.astype(np.intp), 0].tolist())
    return reps


def induced_boundary_sample(
    rep: GroupRep,
    phi: FreeAutomorphism,
    n: int,
    budget: int = DEFAULT_WORD_BUDGET,
) -> CircleMapSample:
    """Pair attracting fixed points of w with those of phi(w) over one
    word per conjugacy class of length <= n.

    Classes whose element or image is not certifiably hyperbolic are
    skipped and counted; more than half skipped aborts.  The sample is
    deduplicated on theta_in (colliding entries must agree on theta_out)
    and must be cyclically order-consistent as a whole.
    """
    if n < 1:
        raise InvalidInput("induced_boundary_sample needs n >= 1")
    if phi.rank != rep.rank:
        raise InvalidInput(f"automorphism rank {phi.rank} != group rank {rep.rank}")
    classes = conjugacy_class_words(rep.rank, n, budget)
    raw: list[tuple[float, float, GroupWord]] = []
    skipped = 0
    for w in classes:
        tin = attracting_angle(rep, w)
        if tin is None:
            skipped += 1
            continue
        tout = attracting_angle(rep, phi.apply(w))
        if tout is None:
            skipped += 1
            continue
        raw.append((tin, tout, w))
    if not raw:
        raise EmptySample("no hyperbolic conjugacy classes sampled; increase n")
    if skipped > MAX_SKIP_FRACTION * len(classes):
        raise NumericFailure(
            f"{skipped} of {len(classes)} classes skipped as non-hyperbolic; "
            "representation data looks wrong"
        )
    raw.sort(key=lambda p: p[0])
    pairs: list[tuple[float, float, GroupWord]] = [raw[0]]
    for tin, tout, w in raw[1:]:
        if tin - pairs[-1][0] <= TOL_ANGLE:
            if _circular_distance(tout, pairs[-1][1]) > OUT_CONSISTENCY_TOL:
                raise OrderViolation(
                    "colliding inputs map to distinct outputs "
                    f"({pairs[-1][2]} vs {w})",
                    triple=(pairs[-1][:2], (tin, tout)),
                )
            continue
        pairs.append((tin, tout, w))
    # wraparound collision
    while len(pairs) > 1 and pairs[0][0] + TWO_PI - pairs[-1][0] <= TOL_ANGLE:
        if _circular_distance(pairs[-1][1], pairs[0][1]) > OUT_CONSISTENCY_TOL:
            raise OrderViolation(
                "colliding inputs map to distinct outputs at the wraparound",
                triple=(pairs[-1][:2], pairs[0][:2]),
            )
        pairs.pop()
    sample = CircleMapSample(tuple(pairs), skipped)
    if len(sample) >= 3:
        verdict = order_check(sample)
        if verdict.violation is not None:
            raise OrderViolation(
                "sampled map is not cyclically order-consistent",
                triple=verdict.violation,
            )
    return sample


def _circular_distance(t1: float, t2: float) -> float:
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


def _orientation(a: float, b: float, c: float) -> int:
    """+1 if (a, b, c) is positively ordered on the circle, -1 otherwise."""
    return 1 if (b - a) % TWO_PI < (c - a) % TWO_PI else -1


@dataclass(frozen=True)
class OrderCheckResult:
    orientation: Optional[str]  # "preserving" | "reversing" | None
    violation: Optional[tuple] = None

    @property
    def preserving(self) -> bool:
        return self.orientation == "preserving"


def order_check(s: CircleMapSample) -> OrderCheckResult:
    """Scan consecutive output triples for a constant cyclic orientation."""
    m = len(s.pairs)
    if m < 3:
        raise TooFewPoints("order check needs at least 3 sample points")
    tout = s.theta_out()
    signs = [
        _orientation(tout[i], tout[(i + 1) % m], tout[(i + 2) % m]) for i in range(m)
    ]
    if all(x == 1 for x in signs):
        return OrderCheckResult("preserving")
    if all(x == -1 for x in signs):
        return OrderCheckResult("reversing")
    i = next(i for i in range(m) if signs[i] != signs[0])
    triple = tuple(s.pairs[(i + k) % m][:2] for k in range(3))
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
    budget: int = DEFAULT_WORD_BUDGET,
) -> BoundaryIdentityResult:
    """Decide whether the automorphism behind a sampled circle map (see
    `induced_boundary_sample`) fixes the sampled boundary pointwise up to
    the deck-transformation freedom.

    The freedom is exactly an inner correction: the sample's outputs are
    post-composed with the Mobius action of evaluate(u) over all words u
    of length <= m, and the map passes if some u brings the max angular
    deviation below tol.  Ties within twice the best residual are
    reported as near-minimizers instead of pretending uniqueness.
    """
    if m < 0:
        raise InvalidInput("search depth must be nonnegative")
    tin = sample.theta_in()
    zout = np.exp(1j * sample.theta_out())
    results: list[tuple[float, GroupWord]] = []
    for u in enumerate_reduced_words(rep.rank, m, budget):
        mu = evaluate(rep, u)
        w = (mu.a * zout + mu.b) / (np.conj(mu.b) * zout + np.conj(mu.a))
        dev = np.angle(w * np.exp(-1j * tin))
        results.append((float(np.abs(dev).max()), u))
    best_res, best_u = min(results, key=lambda r: r[0])  # shortlex wins ties
    near = tuple(u for r, u in results if r <= 2.0 * best_res)
    return BoundaryIdentityResult(
        identity=best_res <= tol,
        best_inner=best_u,
        residual=best_res,
        near_minimizers=near,
        sample_size=len(sample),
        skipped=sample.skipped,
    )


@dataclass(frozen=True)
class ExtensionReport:
    """Aligned input/image gap moduli for consecutive sample points."""

    max_gap_in: float
    max_image_gap: float
    gap_pairs: tuple[tuple[float, float], ...]

    def to_json(self) -> dict:
        return {
            "max_gap_in": self.max_gap_in,
            "max_image_gap": self.max_image_gap,
            "gap_pairs": [[a, b] for a, b in self.gap_pairs],
        }


def continuity_profile(s: CircleMapSample) -> ExtensionReport:
    """Image gaps of consecutive input gaps; both lists partition the
    circle (in the map's own orientation), so shrinking input gaps with
    bounded image gaps is the finite echo of continuity."""
    m = len(s.pairs)
    if m < 4:
        raise TooFewPoints("continuity profile needs at least 4 sample points")
    verdict = order_check(s)
    if verdict.violation is not None:
        raise OrderViolation("cannot profile an order-violating sample",
                             triple=verdict.violation)
    tin = s.theta_in()
    tout = s.theta_out()
    sign = 1.0 if verdict.orientation == "preserving" else -1.0
    pairs = []
    for i in range(m):
        j = (i + 1) % m
        gi = (tin[j] - tin[i]) % TWO_PI
        go = (sign * (tout[j] - tout[i])) % TWO_PI
        pairs.append((float(gi), float(go)))
    return ExtensionReport(
        max_gap_in=max(p[0] for p in pairs),
        max_image_gap=max(p[1] for p in pairs),
        gap_pairs=tuple(pairs),
    )
