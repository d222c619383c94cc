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
import functools
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
from hypsurf.words import (
    GroupWord,
    _letter_key,
    letter_rows_to_strings,
    letter_text,
    shortlex_levels,
)

#: relator products must land this close to +/- identity
TOL_RELATOR = 1e-6
#: default radial cutoff for limit-set projection: keep |z| > 1 - delta
DEFAULT_DELTA = 0.2
#: beyond this entry magnitude the unit-determinant normalization of a
#: word product is no longer certifiable in double precision
MAX_ENTRY_MAGNITUDE = 1e6
#: rows rendered per block by `csv_blocks`
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
    million-point samples stay cheap to hold.  CSV and JSON rendering read
    the two arrays directly, without per-row `GroupWord` objects; CSV rows
    come in fixed-size blocks (`csv_blocks`), so a caller that writes them
    as they come never holds the whole text.
    """

    mode: SampleMode
    angles: np.ndarray
    letters: np.ndarray

    def __len__(self) -> int:
        return len(self.angles)

    def to_csv_rows(self) -> Iterator[str]:
        return csv_blocks("theta,word", (self.angles,), self.letters)

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "angles": self.angles.tolist(),
            "words": letter_rows_to_strings(self.letters),
        }


def csv_blocks(header: str, columns: tuple[np.ndarray, ...],
               letters: np.ndarray) -> Iterator[str]:
    """CSV text of float columns, each value exactly `format(x, ".17g")`,
    and a word column (`words.letter_text`): the header, then blocks of
    `_RENDER_BLOCK_ROWS` rows, each one NUL-padded uint8 matrix whose other
    bytes are the text.  The items joined by newlines are the text.

    For 1e-4 <= x < 8 the digits are exact.  With d = floor(log10 x), 10**k
    for k = 16 - d is an exact double, and Dekker's product gives
    x * 10**k = p + e exactly.  When N = round(x * 10**k) has 17 digits,
    p >= 2**53 is even, so N = p + rint(e), rounded half to even as
    `%.17g` rounds; where N falls outside [10**16, 10**17), d moves by one
    and N is taken again.  (With d one too large, N lands in range only for
    x within a relative 5e-17 below a power of ten; no double here is.)
    Zero, exponent forms, x >= 8, negative and non-finite values go
    through `format` itself.
    """
    yield header
    word_field = slice(25 * len(columns), -1)
    for i in range(0, len(letters), _RENDER_BLOCK_ROWS):
        j = i + _RENDER_BLOCK_ROWS
        words = letter_text(letters[i:j])
        # a float field is 24 columns (no %.17g text is longer) and a comma
        text = np.zeros((len(words), word_field.start + words.shape[1] + 1), dtype=np.uint8)
        for c, column in enumerate(columns):
            _float_text(np.asarray(column[i:j], dtype=np.float64), text[:, 25 * c:25 * c + 24])
            text[:, 25 * c + 24] = ord(",")
        text[:, word_field] = words
        text[:-1, -1] = ord("\n")  # the blocks are joined by newlines
        yield text[text != 0].tobytes().decode("ascii")


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the four digits of q as one uint32 (item 10_000 + q: trailing zeros
    # as NUL); as 7 bytes the text through the first digit D at exponent
    # d = 0 (item D, or 10 + D with a point after it) or d < 0 (item
    # 10 * (1 - d) + D); and 10**k for k <= 22, exact doubles
    quads = [f"{q:04d}" for q in range(10_000)]
    quads += [q.rstrip("0").ljust(4, "\0") for q in quads]
    heads = ["{}", "{}."] + ["0." + "0" * zeros + "{}" for zeros in range(4)]
    heads = [head.format(lead).ljust(7, "\0") for head in heads for lead in range(10)]
    return (np.frombuffer("".join(quads).encode(), dtype=np.uint32),
            np.frombuffer("".join(heads).encode(), dtype="V7"),
            np.array([float(10**k) for k in range(23)]))


def _rounded_scaled(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(x * 10**k) half to even, where that lies in [2**53, 2**63)."""
    scale = _digit_tables()[2][k]
    p = x * scale
    # Dekker: split each factor into 26-bit halves, then p + e = x * scale
    t, u = 134217729.0 * x, 134217729.0 * scale  # 2**27 + 1
    xh, sh = t - (t - x), u - (u - scale)
    xl, sl = x - xh, scale - sh
    e = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _float_text(x: np.ndarray, text: np.ndarray) -> None:
    """Write `format(v, ".17g")` of each v in x, NUL-padded, into the rows
    of a 24-column uint8 matrix."""
    fast = (x >= 1e-4) & (x < 8.0)
    v = np.where(fast, x, 1.0)
    exp10 = np.floor(np.log10(v)).astype(np.intp)
    n = _rounded_scaled(v, 16 - exp10)
    redo = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while redo.size:
        exp10[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo] = _rounded_scaled(v[redo], 16 - exp10[redo])
        redo = redo[(n[redo] < 10**16) | (n[redo] >= 10**17)]
    lead, rest = np.divmod(n, 10**16)
    quads = np.divmod(rest // 10**8, 10**4) + np.divmod(rest % 10**8, 10**4)
    digits, heads, _ = _digit_tables()
    head = np.take(heads, 10 * np.where(exp10 < 0, 1 - exp10, rest != 0) + lead)
    text[:, :7] = head.view(np.uint8).reshape(-1, 7)
    strip = np.full(len(x), 10_000)  # until a nonzero quad, from the right
    for q in (3, 2, 1, 0):
        text[:, 7 + 4 * q:11 + 4 * q] = digits[quads[q] + strip].view(np.uint8).reshape(-1, 4)
        strip[quads[q] != 0] = 0
    for r in np.flatnonzero(~fast):
        text[r] = list(format(float(x[r]), ".17g").encode().ljust(24, b"\0"))


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

    def pad(rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] == width:
            return rows
        out = np.zeros((rows.shape[0], width), dtype=np.int8)
        out[:, : rows.shape[1]] = rows
        return out

    if mode is SampleMode.ORBIT_PROJECTION:
        z0 = base.z
        if abs(z0) > 1.0 - delta:
            theta_parts.append(np.array([reduce_angle(cmath.phase(z0))]))
            letter_parts.append(np.zeros((1, width), dtype=np.int8))
        for lv in levels:
            z = (lv.a * z0 + lv.b) / (np.conj(lv.b) * z0 + np.conj(lv.a))
            mask = np.abs(z) > 1.0 - delta
            theta_parts.append(reduce_angle(np.angle(z[mask])))
            letter_parts.append(pad(lv.letters[mask]))
    else:
        for lv in levels:
            cyc = lv.letters[:, 0] != -lv.letters[:, -1]
            mask = cyc & is_certainly_hyperbolic(lv.a, lv.b)
            rows = pad(lv.letters[mask])
            for z in circle_fixed_points(lv.a[mask], lv.b[mask]):
                theta_parts.append(reduce_angle(np.angle(z)))
                letter_parts.append(rows)
    if not theta_parts or sum(len(t) for t in theta_parts) == 0:
        raise EmptySample(
            "no qualifying boundary points; increase n or loosen delta"
        )
    theta = np.concatenate(theta_parts)
    letters = np.vstack(letter_parts)
    order, keep, end = circle_net(theta)
    idx = order[keep][:end]
    return EndpointSample(mode, theta[idx], letters[idx])


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
