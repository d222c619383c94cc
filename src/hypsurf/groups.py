"""Finitely generated groups of disk isometries and their boundary samples.

A `GroupRep` is a tuple of generator isometries plus optional relator
words (checked to evaluate to +/- identity).  On top of it: word
products along the shortlex tree and finite samples of the fixed-point
set / limit set on the circle at infinity (axis endpoints, or radially
projected orbit points), with the gap statistics used to probe density
and Cantor structure.

The words come from the one shortlex table, `words.shortlex_levels`, with
matrices up to a positive scale.  Sampling is vectorized level-by-level
over numpy arrays but keeps a strict deterministic order (shortlex, then
sorted angles with shortlex tie-break), so repeated runs are byte-identical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from hypsurf.disk import (
    TWO_PI,
    DiskPoint,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    circle_fixed_points,
    circle_net,
    is_certainly_hyperbolic,
    reduce_angle,
    translation_along,
)
from hypsurf.errors import (
    CirclesOverlap,
    EmptySample,
    IndexOutOfRange,
    InvalidInput,
    NumericFailure,
)
from hypsurf.text import sample_csv
from hypsurf.words import GroupWord, _letter_key, shortlex_levels, stack_padded

#: relator products must land this close to +/- identity
TOL_RELATOR = 1e-6
#: default radial cutoff for limit-set projection: keep |z| > 1 - delta
DEFAULT_DELTA = 0.2
#: beyond this entry magnitude the unit-determinant normalization of a
#: word product is no longer certifiable in double precision
MAX_ENTRY_MAGNITUDE = 1e6
#: a word-table level with an entry past this is divided by it (exactly)
_RESCALE_AT = 2.0**256


def _pm_identity_defect(m: MobiusIsometry) -> float:
    return min(
        max(abs(m.a - 1.0), abs(m.b)),
        max(abs(m.a + 1.0), abs(m.b)),
    )


@dataclass(frozen=True)
class GroupRep:
    """Finitely generated group of orientation-preserving disk isometries."""

    generators: tuple[MobiusIsometry, ...]
    relators: tuple[GroupWord, ...] = ()
    label: str = ""

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise InvalidInput("a group representation needs at least one generator")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            defect = _pm_identity_defect(evaluate(self, r))
            if defect > TOL_RELATOR:
                raise InvalidInput(f"relator {r} has residual {defect:.3e}")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def letter_isometry(self, letter: int) -> MobiusIsometry:
        idx = abs(letter) - 1
        if idx >= len(self.generators):
            raise IndexOutOfRange(f"letter {letter} outside rank {self.rank}")
        g = self.generators[idx]
        return g if letter > 0 else g.inverse()


def evaluate(rep: GroupRep, w: GroupWord) -> MobiusIsometry:
    """Product of generator matrices along a word.

    Raises NumericFailure once entries grow past the range where the
    unit-determinant normalization is still meaningful; use
    `attracting_angle` for the boundary data of very long words, and
    `_word_levels` for every product up to a length at once.  Kept for
    the relator check of `GroupRep` and for one-off products; perfbench's
    tracer also names it.
    """
    m = MobiusIsometry.identity()
    for letter in w.letters:
        m = m.compose(rep.letter_isometry(letter))
        if abs(m.a) > MAX_ENTRY_MAGNITUDE:
            raise NumericFailure(
                f"word product entries exceed {MAX_ENTRY_MAGNITUDE:g}; "
                "determinant normalization would be unreliable"
            )
    return m


# ---------------------------------------------------------------------------
# vectorized word/matrix tables


@dataclass(frozen=True)
class _Level:
    letters: np.ndarray  # int8, shape (count, length)
    a: np.ndarray        # complex128
    b: np.ndarray


def _letter_matrices(rep: GroupRep) -> tuple[np.ndarray, np.ndarray]:
    """Entries a and b of every letter's isometry, indexed by `_letter_key`."""
    mats = [rep.letter_isometry(s * k) for k in range(1, rep.rank + 1) for s in (1, -1)]
    return np.array([m.a for m in mats]), np.array([m.b for m in mats])


def _word_levels(rep: GroupRep, n: int) -> list[_Level]:
    """Levels 1..n of the shortlex word table with their matrix entries.

    Each word's matrix is its parent row's times its last letter's, up to
    a positive scale: a level is divided by `_RESCALE_AT` when its largest
    entry passes it, and is otherwise left as the product.
    """
    table = shortlex_levels(rep.rank, n)
    if not table:
        return []
    # level 1 is the alphabet in key order
    la, lb = _letter_matrices(rep)
    fan = 2 * rep.rank - 1
    levels = [_Level(table[0], la, lb)]
    for letters in table[1:]:
        prev = levels[-1]
        pa, pb = np.repeat(prev.a, fan), np.repeat(prev.b, fan)
        key = _letter_key(letters[:, -1].astype(np.intp))
        ma, mb = la[key], lb[key]
        # keep as written: from 16,384 rows numpy swaps pb * mb.conjugate() (FMA rounds it apart)
        a = pa * ma + pb * mb.conjugate()
        b = pa * mb + pb * ma.conjugate()
        if np.abs(a).max() > _RESCALE_AT:
            a /= _RESCALE_AT
            b /= _RESCALE_AT
        levels.append(_Level(letters, a, b))
    return levels


# ---------------------------------------------------------------------------
# endpoint samples


class SampleMode(Enum):
    ORBIT_PROJECTION = "orbit"
    AXIS_ENDPOINTS = "axes"


@dataclass(frozen=True)
class EndpointSample:
    """Finite subset of the circle at infinity with word provenance.

    ``angles`` is the net `disk.circle_net` keeps, strictly increasing in
    [0, 2*pi).  Provenance is kept as a zero-padded int8 letter matrix
    aligned with ``angles`` (`GroupWord.from_row` decodes a row), so
    million-point samples stay cheap to hold.  Its CSV and JSON (`text`)
    are rendered from the two arrays in blocks of rows, without per-row
    `GroupWord` objects.
    """

    mode: SampleMode
    angles: np.ndarray
    letters: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def to_csv_rows(self) -> Iterator[str]:
        """The CSV text as chunks that concatenate to it (`text.sample_csv`)."""
        return sample_csv("theta,word", (self.angles,), self.letters)



def limit_sample(
    rep: GroupRep,
    base: DiskPoint,
    n: int,
    mode: SampleMode,
    delta: float = DEFAULT_DELTA,
) -> EndpointSample:
    """Finite approximation of the limit set / fixed-point set.

    ORBIT_PROJECTION radially projects orbit points with |z| > 1 - delta.
    AXIS_ENDPOINTS collects both fixed points of every hyperbolic
    cyclically reduced word of length <= n.
    """
    if n < 1:
        raise InvalidInput("limit_sample needs n >= 1")
    if mode is SampleMode.ORBIT_PROJECTION and not 0.0 < delta < 1.0:
        raise InvalidInput("delta must lie in (0, 1)")
    levels = _word_levels(rep, n)
    theta_parts: list[np.ndarray] = []
    letter_parts: list[np.ndarray] = []
    width = max(lv.letters.shape[1] for lv in levels) if levels else 0

    if mode is SampleMode.ORBIT_PROJECTION:
        z0 = base.z
        if abs(z0) > 1.0 - delta:
            theta_parts.append(np.array([reduce_angle(cmath.phase(z0))]))
            letter_parts.append(np.zeros((1, width), dtype=np.int8))
        for lv in levels:
            z = (lv.a * z0 + lv.b) / (np.conj(lv.b) * z0 + np.conj(lv.a))
            mask = np.abs(z) > 1.0 - delta
            theta_parts.append(reduce_angle(np.angle(z[mask])))
            letter_parts.append(lv.letters[mask])
    else:
        for lv in levels:
            cyc = lv.letters[:, 0] != -lv.letters[:, -1]
            mask = cyc & is_certainly_hyperbolic(lv.a, lv.b)
            rows = lv.letters[mask]
            for z in circle_fixed_points(lv.a[mask], lv.b[mask]):
                theta_parts.append(reduce_angle(np.angle(z)))
                letter_parts.append(rows)
    if not theta_parts or sum(len(t) for t in theta_parts) == 0:
        raise EmptySample(
            "no qualifying boundary points; increase n or loosen delta"
        )
    theta = np.concatenate(theta_parts)
    letters = stack_padded(letter_parts, width)
    net = circle_net(theta)
    return EndpointSample(mode, theta[net], letters[net])


def _circular_gaps(s: EndpointSample) -> np.ndarray:
    """The gap after each sample angle, the last one wrapping to the first."""
    m = len(s.angles)
    if m == 0:
        raise EmptySample("empty endpoint sample")
    if m == 1:
        return np.array([TWO_PI])
    return np.append(np.diff(s.angles), s.angles[0] + TWO_PI - s.angles[-1])


def max_angular_gap(s: EndpointSample) -> float:
    """Largest circular gap between consecutive sample angles."""
    return float(_circular_gaps(s).max())


def gap_profile(s: EndpointSample) -> list[float]:
    """All circular gaps, sorted descending."""
    return np.sort(_circular_gaps(s))[::-1].tolist()


# ---------------------------------------------------------------------------
# stable boundary data for long words


def attracting_angles(rep: GroupRep, letters: np.ndarray) -> np.ndarray:
    """Attracting fixed-point angle of the word in every row of a
    zero-padded letter matrix; NaN where the word's conjugacy class fails
    `disk.is_certainly_hyperbolic` (the empty word included).

    Stable for words far beyond `evaluate`'s range: the cyclic core v of
    w = u v u^-1 has its axis through the thick part of the orbit, so its
    fixed points come out of the scale-free formula of
    `disk.circle_fixed_points` on a product divided by its largest entry
    modulus after every letter; the conjugator u is then applied letter
    by letter on the circle, where reduced-word ping-pong makes every step
    a contraction.  Rows advance together, one letter column at a time.
    """
    letters = np.asarray(letters, dtype=np.intp)
    count = len(letters)
    outside = np.abs(letters) > rep.rank
    if outside.any():
        raise IndexOutOfRange(f"letter {letters[outside][0]} outside rank {rep.rank}")
    la, lb = _letter_matrices(rep)
    rows = np.arange(count)
    length = np.count_nonzero(letters, axis=1)
    # cyclic split w = u v u^-1: u is the first `start` letters of the row
    start = np.zeros(count, dtype=np.intp)
    peel = np.ones(count, dtype=bool)
    for k in range(letters.shape[1] // 2):
        last = letters[rows, np.maximum(length - 1 - k, 0)]
        peel &= (length - 2 * k >= 2) & (letters[:, k] == -last)
        if not peel.any():
            break
        start += peel
    core = length - 2 * start

    a = np.ones(count, dtype=complex)
    b = np.zeros(count, dtype=complex)
    for c in range(core.max(initial=0)):
        live = np.flatnonzero(core > c)
        key = _letter_key(letters[live, start[live] + c])
        ga, gb, x, y = la[key], lb[key], a[live], b[live]
        # keep as written: from 16,384 rows numpy swaps y * gb.conj() (FMA rounds it apart)
        x, y = x * ga + y * gb.conj(), x * gb + y * ga.conj()
        m = np.maximum(np.abs(x), np.abs(y))
        big = m > 1.0
        x[big] /= m[big]
        y[big] /= m[big]
        a[live], b[live] = x, y

    ok = is_certainly_hyperbolic(a, b)
    z, _ = circle_fixed_points(a[ok], b[ok])
    z /= np.abs(z)
    walk, lead = letters[ok], start[ok]
    for c in range(lead.max(initial=0) - 1, -1, -1):
        live = np.flatnonzero(lead > c)
        key = _letter_key(walk[live, c])
        ga, gb, x = la[key], lb[key], z[live]
        x = (ga * x + gb) / (gb.conj() * x + ga.conj())
        z[live] = x / np.abs(x)
    out = np.full(count, np.nan)
    out[ok] = reduce_angle(np.angle(z))
    return out


def attracting_angle(rep: GroupRep, w: GroupWord) -> Optional[float]:
    """Attracting fixed-point angle of a word, or None if its conjugacy
    class is not certifiably hyperbolic; `attracting_angles` of one row."""
    theta = float(attracting_angles(rep, np.array([w.letters], dtype=np.intp))[0])
    return None if math.isnan(theta) else theta


# ---------------------------------------------------------------------------
# named representations


OCTAGON_RELATOR = GroupWord((1, -2, 3, -4, -1, 2, -3, 4))


def octagon_group() -> GroupRep:
    """Genus-2 surface group from the regular octagon with vertex angle
    pi/4, opposite sides paired by hyperbolic translations.

    The four generators translate along the diagonals at angles k*pi/4 by
    2*arccosh(1 + sqrt(2)); the boundary-word relator for this pairing is
    T0 T1^-1 T2 T3^-1 T0^-1 T1 T2^-1 T3.
    """
    a = 1.0 + math.sqrt(2.0)
    bmod = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    gens = tuple(
        MobiusIsometry(a, bmod * cmath.exp(1j * k * math.pi / 4.0)) for k in range(4)
    )
    return GroupRep(gens, relators=(OCTAGON_RELATOR,), label="octagon")


def schottky_rank2(separation: float) -> GroupRep:
    """Free rank-2 Schottky group: translations of the given length along
    the real and imaginary diameters.

    The four isometric circles must be pairwise disjoint (ping-pong),
    which pins the limit set to a Cantor set; this holds once
    cosh(separation/2) > sqrt(2).
    """
    if not math.isfinite(separation):
        raise InvalidInput(f"separation {separation!r} must be finite")
    if separation <= 0.0:
        raise InvalidInput("separation must be positive")
    g1 = translation_along(Geodesic(IdealPoint(0.0), IdealPoint(math.pi)), separation)
    g2 = translation_along(
        Geodesic(IdealPoint(math.pi / 2.0), IdealPoint(3.0 * math.pi / 2.0)), separation
    )
    circles = []
    for g in (g1, g2):
        r = 1.0 / abs(g.b)
        circles.append((-g.a.conjugate() / g.b.conjugate(), r))  # g's isometric circle
        circles.append((g.a / g.b.conjugate(), r))               # g^-1's
    for i in range(4):
        for j in range(i + 1, 4):
            c1, r1 = circles[i]
            c2, r2 = circles[j]
            if abs(c1 - c2) <= r1 + r2:
                raise CirclesOverlap(
                    f"isometric circles overlap at separation {separation}; "
                    "ping-pong condition fails"
                )
    return GroupRep((g1, g2), label="schottky")


def cusped_torus_group() -> GroupRep:
    """Once-punctured square torus: two hyperbolic translations with
    perpendicular axes and parabolic commutator (trace -2)."""
    a = MobiusIsometry(math.sqrt(2.0), 1.0)
    b = MobiusIsometry(math.sqrt(2.0), 1j)
    return GroupRep((a, b), label="cusped-torus")
