"""Finitely generated groups of disk isometries and their boundary samples.

A `GroupRep` is a tuple of generator isometries plus optional relator
words (checked to evaluate to +/- identity).  On top of it: word
products along the shortlex tree, orbit maps, and finite samples of the
fixed-point set / limit set on the circle at infinity, with the gap
statistics used to probe density and Cantor structure.

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
    TOL_ANGLE,
    DiskPoint,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    circle_fixed_points,
    is_certainly_hyperbolic,
    translation_along,
)
from hypsurf.errors import (
    CirclesOverlap,
    EmptySample,
    IndexOutOfRange,
    InvalidInput,
    NumericFailure,
)
from hypsurf.words import (
    DEFAULT_WORD_BUDGET,
    GroupWord,
    _letter_key,
    letter_rows_to_strings,
    shortlex_levels,
)

#: relator products must land this close to +/- identity
TOL_RELATOR = 1e-6
#: default radial cutoff for limit-set projection: keep |z| > 1 - delta
DEFAULT_DELTA = 0.2
#: beyond this entry magnitude the unit-determinant normalization of a
#: word product is no longer certifiable in double precision
MAX_ENTRY_MAGNITUDE = 1e6
#: rows rendered per block by `EndpointSample.to_csv_rows`
_RENDER_BLOCK_ROWS = 65536
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
    `attracting_angle` for the boundary data of very long words.
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


def _word_levels(rep: GroupRep, n: int, budget: int = DEFAULT_WORD_BUDGET) -> list[_Level]:
    """Levels 1..n of the shortlex word table with their matrix entries.

    Each word's matrix is its parent row's times its last letter's, up to
    a positive scale: a level is divided by `_RESCALE_AT` when its largest
    entry passes it, and is otherwise left as the product.
    """
    table = shortlex_levels(rep.rank, n, budget)
    if not table:
        return []
    mats = [rep.letter_isometry(int(l)) for l in table[0][:, 0]]
    la = np.array([complex(m.a) for m in mats])
    lb = np.array([complex(m.b) for m in mats])
    fan = 2 * rep.rank - 1
    levels = [_Level(table[0], la, lb)]
    for letters in table[1:]:
        prev = levels[-1]
        pa, pb = np.repeat(prev.a, fan), np.repeat(prev.b, fan)
        key = _letter_key(letters[:, -1].astype(np.intp))
        ma, mb = la[key], lb[key]
        a = pa * ma + pb * mb.conjugate()
        b = pa * mb + pb * ma.conjugate()
        if np.abs(a).max() > _RESCALE_AT:
            a /= _RESCALE_AT
            b /= _RESCALE_AT
        levels.append(_Level(letters, a, b))
    return levels


# ---------------------------------------------------------------------------
# orbits and endpoint samples


@dataclass(frozen=True)
class OrbitSample:
    """Orbit of a basepoint under all reduced words up to a length."""

    basepoint: DiskPoint
    max_word_length: int
    points: tuple[tuple[GroupWord, DiskPoint], ...]

    def __len__(self) -> int:
        return len(self.points)

    def to_csv_rows(self) -> Iterator[str]:
        yield "re,im,word"
        for w, p in self.points:
            yield f"{p.z.real:.17g},{p.z.imag:.17g},{w}"

    def to_json(self) -> dict:
        return {
            "basepoint": {"re": self.basepoint.z.real, "im": self.basepoint.z.imag},
            "max_word_length": self.max_word_length,
            "points": [
                {"re": p.z.real, "im": p.z.imag, "word": str(w)} for w, p in self.points
            ],
        }


def orbit(rep: GroupRep, base: DiskPoint, n: int, budget: int = DEFAULT_WORD_BUDGET) -> OrbitSample:
    """One orbit point per reduced word of length <= n, in shortlex order."""
    if n < 0:
        raise InvalidInput("orbit needs n >= 0")
    pts: list[tuple[GroupWord, DiskPoint]] = [(GroupWord(), base)]
    z0 = base.z
    for level in _word_levels(rep, n, budget):
        z = (level.a * z0 + level.b) / (np.conj(level.b) * z0 + np.conj(level.a))
        if np.any(np.abs(z) >= 1.0):
            raise NumericFailure("orbit point escaped the open disk")
        for row, zz in zip(level.letters, z):
            pts.append((GroupWord(tuple(int(x) for x in row)), DiskPoint(complex(zz))))
    return OrbitSample(base, n, tuple(pts))


class SampleMode(Enum):
    ORBIT_PROJECTION = "orbit"
    AXIS_ENDPOINTS = "axes"


@dataclass(frozen=True)
class EndpointSample:
    """Finite subset of the circle at infinity with word provenance.

    ``angles`` is sorted strictly increasing in [0, 2*pi) after dedup at
    TOL_ANGLE.  Provenance is kept as a zero-padded int8 letter matrix
    aligned with ``angles``; `word` / `__iter__` decode rows on demand, so
    million-point samples stay cheap to hold.  CSV and JSON rendering read
    the two arrays directly, without per-row `GroupWord` objects; CSV rows
    are built one fixed-size block at a time, so a caller that writes them
    as they come never holds the whole text.
    """

    mode: SampleMode
    angles: np.ndarray
    letters: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def word(self, i: int) -> GroupWord:
        return GroupWord(tuple(int(x) for x in self.letters[i] if x != 0))

    def ideal_point(self, i: int) -> IdealPoint:
        return IdealPoint(float(self.angles[i]))

    def __iter__(self) -> Iterator[tuple[IdealPoint, GroupWord]]:
        for i in range(len(self.angles)):
            yield self.ideal_point(i), self.word(i)

    def to_csv_rows(self) -> Iterator[str]:
        yield "theta,word"
        for i in range(0, len(self.angles), _RENDER_BLOCK_ROWS):
            j = i + _RENDER_BLOCK_ROWS
            words = letter_rows_to_strings(self.letters[i:j])
            yield from (
                f"{t:.17g},{w}" for t, w in zip(self.angles[i:j].tolist(), words)
            )

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "angles": self.angles.tolist(),
            "words": letter_rows_to_strings(self.letters),
        }


def _dedup_sorted_circle(theta: np.ndarray, order_rank: np.ndarray, tol: float):
    """Collapse tol-clusters of angles (wraparound included) to one
    representative each: the first in angle order, enumeration rank
    breaking exact ties."""
    srt = np.lexsort((order_rank, theta))
    th = theta[srt]
    keep = np.empty(len(th), dtype=bool)
    keep[0] = True
    np.greater(np.diff(th), tol, out=keep[1:])
    idx = srt[keep]
    th = th[keep]
    # wraparound: trailing angles within tol of first + 2*pi collapse into it
    while len(th) > 1 and th[0] + 2.0 * math.pi - th[-1] <= tol:
        th = th[:-1]
        idx = idx[:-1]
    return th, idx


def limit_sample(
    rep: GroupRep,
    base: DiskPoint,
    n: int,
    mode: SampleMode,
    delta: float = DEFAULT_DELTA,
    budget: int = DEFAULT_WORD_BUDGET,
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
    levels = _word_levels(rep, n, budget)
    theta_parts: list[np.ndarray] = []
    letter_parts: list[np.ndarray] = []
    width = max(lv.letters.shape[1] for lv in levels) if levels else 0

    def pad(rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] == width:
            return rows
        out = np.zeros((rows.shape[0], width), dtype=np.int8)
        out[:, : rows.shape[1]] = rows
        return out

    if mode is SampleMode.ORBIT_PROJECTION:
        z0 = base.z
        if abs(z0) > 1.0 - delta:
            theta_parts.append(np.array([cmath.phase(z0) % (2.0 * math.pi)]))
            letter_parts.append(np.zeros((1, width), dtype=np.int8))
        for lv in levels:
            z = (lv.a * z0 + lv.b) / (np.conj(lv.b) * z0 + np.conj(lv.a))
            mask = np.abs(z) > 1.0 - delta
            theta_parts.append(np.mod(np.angle(z[mask]), 2.0 * math.pi))
            letter_parts.append(pad(lv.letters[mask]))
    else:
        for lv in levels:
            cyc = lv.letters[:, 0] != -lv.letters[:, -1]
            mask = cyc & is_certainly_hyperbolic(lv.a, lv.b)
            rows = pad(lv.letters[mask])
            for z in circle_fixed_points(lv.a[mask], lv.b[mask]):
                theta_parts.append(np.mod(np.angle(z), 2.0 * math.pi))
                letter_parts.append(rows)
    if not theta_parts or sum(len(t) for t in theta_parts) == 0:
        raise EmptySample(
            "no qualifying boundary points; increase n or loosen delta"
        )
    theta = np.concatenate(theta_parts)
    letters = np.vstack(letter_parts)
    order_rank = np.arange(len(theta), dtype=np.int64)
    th, idx = _dedup_sorted_circle(theta, order_rank, TOL_ANGLE)
    return EndpointSample(mode, th, letters[idx])


def max_angular_gap(s: EndpointSample) -> float:
    """Largest circular gap between consecutive sample angles."""
    m = len(s.angles)
    if m == 0:
        raise EmptySample("empty endpoint sample")
    if m == 1:
        return 2.0 * math.pi
    d = np.diff(s.angles)
    wrap = s.angles[0] + 2.0 * math.pi - s.angles[-1]
    return float(max(d.max(), wrap))


def gap_profile(s: EndpointSample) -> list[float]:
    """All circular gaps, sorted descending."""
    m = len(s.angles)
    if m == 0:
        raise EmptySample("empty endpoint sample")
    if m == 1:
        return [2.0 * math.pi]
    d = np.append(np.diff(s.angles), s.angles[0] + 2.0 * math.pi - s.angles[-1])
    return sorted((float(x) for x in d), reverse=True)


# ---------------------------------------------------------------------------
# stable boundary data for long words


def _scaled_product(rep: GroupRep, letters: tuple[int, ...]) -> tuple[complex, complex]:
    """Word product up to a positive real scale: entries are divided by
    their max modulus after every step, so nothing overflows."""
    a, b = 1.0 + 0.0j, 0.0j
    for letter in letters:
        g = rep.letter_isometry(letter)
        a, b = a * g.a + b * g.b.conjugate(), a * g.b + b * g.a.conjugate()
        m = max(abs(a), abs(b))
        if m > 1.0:
            a /= m
            b /= m
    return a, b


def attracting_angle(rep: GroupRep, w: GroupWord) -> Optional[float]:
    """Attracting fixed-point angle of a word, or None if its conjugacy
    class is not certifiably hyperbolic.

    Stable for words far beyond `evaluate`'s range: the cyclic core v of
    w = u v u^-1 has its axis through the thick part of the orbit, so its
    fixed points come out of a scale-free formula on a rescaled product;
    the conjugator u is then applied letter by letter on the circle,
    where reduced-word ping-pong makes every step a contraction.
    """
    if w.is_identity():
        return None
    u, v = w.cyclic_split()
    a, b = _scaled_product(rep, v.letters)
    if not is_certainly_hyperbolic(a, b):
        return None
    z, _ = circle_fixed_points(a, b)
    z /= abs(z)
    for letter in reversed(u.letters):
        g = rep.letter_isometry(letter)
        z = (g.a * z + g.b) / (g.b.conjugate() * z + g.a.conjugate())
        z /= abs(z)
    return cmath.phase(z) % (2.0 * math.pi)


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
    if not separation > 0.0:
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
