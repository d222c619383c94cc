"""Finitely generated groups of disk isometries and their boundary samples.

A `GroupRep` is a tuple of generator isometries plus optional relator
words (checked to evaluate to +/- identity).  On top of it: word
products along the shortlex tree and finite samples of the fixed-point
set / limit set on the circle at infinity (axis endpoints, or radially
projected orbit points), with the gap statistics used to probe density
and Cantor structure.

The words come from the one shortlex table, `words.word_table`, with
matrices up to a positive scale (`_word_blocks`), grown in place in that
padded table.  Levels 1..n-1 are grown whole and in turn, as the parents of
the next; level n in blocks, the children of `pool.BLOCK_ROWS // fan`
parent rows, one task of `pool.ordered_map` each, on one worker thread per
available CPU.  A sample takes each block's
endpoints in the block's task and drops its matrices, so a full last level
of matrices is never held at once; the angle sectors of the net
(`disk.circle_net`) then gather the kept angles' words, again on the
workers.  A row gives at most one endpoint, its orbit point or its
word's attracting fixed point (the repelling one is its inverse row's),
in table order whatever the blocks and the workers; and `disk.circle_net`
keeps the earliest of exactly equal angles, so repeated runs are
byte-identical.  Every product is row-local
(`_compose_rows`), its range rule included: a row's bits depend on its row
alone, so the blocks move no byte, and `attracting_angles` of a cyclically
reduced row is the angle `limit_sample` takes from the table's product of
the row's root (the row itself unless it is a proper power).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from hypsurf import pool
from hypsurf.disk import (
    TWO_PI,
    DiskPoint,
    MobiusIsometry,
    circle_angle,
    circle_fixed_points,
    circle_net,
    is_certainly_hyperbolic,
    reduce_angle,
)
from hypsurf.errors import (
    CirclesOverlap,
    EmptySample,
    IndexOutOfRange,
    InvalidInput,
    NumericFailure,
)
from hypsurf.text import endpoint_json, sample_csv
from hypsurf.words import GroupWord, _letter_key, child_rows, letters_within_rank, word_table

#: relator products must land this close to +/- identity
TOL_RELATOR = 1e-6
#: default radial cutoff for limit-set projection: keep |z| > 1 - delta
DEFAULT_DELTA = 0.2
#: beyond this entry magnitude the unit-determinant normalization of a
#: word product is no longer certifiable in double precision
MAX_ENTRY_MAGNITUDE = 1e6
#: a product row whose |a| passes this is divided by the power of two that
#: brings |a| into [1/2, 1) (`_compose_rows`)
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
        if letter == 0:
            raise InvalidInput("0 is not a letter")
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
    `_word_blocks` for every product up to a length at once.  Kept for
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


class _Block(NamedTuple):
    letters: np.ndarray  # int8, shape (count, length): consecutive rows of one level
    a: np.ndarray        # complex128
    b: np.ndarray


def _letter_matrices(rep: GroupRep) -> tuple[np.ndarray, np.ndarray]:
    """Entries a and b of every letter's isometry, indexed by `_letter_key`."""
    mats = [rep.letter_isometry(s * k) for k in range(1, rep.rank + 1) for s in (1, -1)]
    return np.array([m.a for m in mats]), np.array([m.b for m in mats])


def _compose_rows(pa: np.ndarray, pb: np.ndarray, ma: np.ndarray, mb: np.ndarray):
    """Entries a, b of the row-wise products of [[pa, pb], [conj pb, conj pa]]
    and [[ma, mb], [conj mb, conj ma]]: a = pa ma + pb conj(mb) and
    b = pa mb + pb conj(ma), under the one range rule of every word
    product: a row whose |a| passes `_RESCALE_AT` is divided by the power
    of two that brings |a| into [1/2, 1), which is exact and moves no
    fixed point, so every row stays in range whatever its letters' sizes.
    ma and mb are overwritten.

    Each product is one explicit call with its operands in this order,
    written to an array that is neither operand, so a row's value does not
    depend on the length of its array.  numpy's FMA complex multiply rounds
    the two operand orders apart, and both shortcuts swap them: from
    16,384 elements it elides the temporary of ``pb * mb.conjugate()`` into
    an in-place product, and a one-element product written over one of its
    operands is taken in the other order.
    """
    a, b = pa * ma, pa * mb
    np.conjugate(mb, out=mb)
    term = np.multiply(pb, mb)
    a += term
    np.conjugate(ma, out=ma)
    np.multiply(pb, ma, out=term)
    b += term
    size = np.abs(a)
    big = size > _RESCALE_AT
    if big.any():
        scale = np.ldexp(1.0, np.frexp(size[big])[1])
        a[big] /= scale
        b[big] /= scale
    return a, b


def _word_blocks(rep: GroupRep, words: np.ndarray,
                 take: Callable[[_Block], object] = lambda block: block) -> Iterator:
    """``take`` of the matrix entries of the shortlex word table of the
    words up to length n, as consecutive blocks of its rows in table
    order.  ``words`` is `words.word_table(rep.rank, n)`, whose rows past
    the empty word the blocks fill in.

    Each level's letter rows are grown from their parent rows
    (`child_rows`) straight into their rows of ``words``, and its matrices
    from theirs.  Levels 1..n-1 come whole, one block each, because each is
    the parent of the next.  The last level comes in blocks of the children
    of `pool.BLOCK_ROWS // fan` parent rows (at least one), each built and
    taken in one task of `pool.ordered_map`, so the blocks run on every
    worker thread, and a consumer that drops each result never holds a full
    last level of matrices.  Level 1 carries the letters' own matrices; a
    longer word's is its parent row's times its last letter's
    (`_compose_rows`), up to a positive scale: a row whose |a| passes
    `_RESCALE_AT` is divided by a power of two.  That rule is row-local,
    so neither the blocking nor the number of workers changes a bit.
    """
    n = words.shape[1]
    if n == 0:
        return
    la, lb = _letter_matrices(rep)
    fan = 2 * rep.rank - 1

    def children(pa: np.ndarray, pb: np.ndarray, letters: np.ndarray) -> _Block:
        key = _letter_key(letters[:, -1].astype(np.intp))
        a, b = _compose_rows(np.repeat(pa, fan), np.repeat(pb, fan), la[key], lb[key])
        return _Block(letters, a, b)

    # level 1 is the alphabet in key order, the children of the empty word
    end = 2 * rep.rank + 1
    level = _Block(child_rows(rep.rank, words[:1, :0], out=words[1:end, :1]), la, lb)
    yield take(level)
    if n == 1:
        return
    for length in range(2, n):
        rows = words[end:end + len(level.letters) * fan, :length]
        end += len(rows)
        level = children(level.a, level.b, child_rows(rep.rank, level.letters, out=rows))
        yield take(level)
    a, b, parents = level.a, level.b, level.letters
    step = max(1, pool.BLOCK_ROWS // fan)
    frontier = words[end:]
    yield from pool.ordered_map(
        lambda lo: take(children(a[lo:lo + step], b[lo:lo + step], child_rows(
            rep.rank, parents[lo:lo + step], out=frontier[lo * fan:(lo + step) * fan]))),
        range(0, len(a), step))


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

    def to_json_rows(self) -> Iterator[str]:
        """The JSON text as chunks that concatenate to it (`text.endpoint_json`)."""
        return endpoint_json(self.mode.value, self.angles, self.letters)



def _endpoint_rows(rep: GroupRep, base: DiskPoint, n: int, mode: SampleMode,
                   delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angles of `limit_sample`'s endpoints before the net, the int32
    row of each one's word, and the padded word table those rows index:
    row 0 is the empty word, then levels 1..n in shortlex order.

    A row gives at most one endpoint, in table order: its orbit point, or
    the attracting fixed point of its word if that is cyclically reduced
    and certainly hyperbolic.  The repelling one is the attracting one of
    the inverse word, whose row is in the same level.  Each `_word_blocks`
    block's endpoints are taken in the task that builds it, and copied, in
    block order, into arrays allocated up front, so a block's matrices are
    dropped as soon as its endpoints are taken.
    """
    words = word_table(rep.rank, n)
    orbit = mode is SampleMode.ORBIT_PROJECTION
    z0 = base.z
    theta = np.empty(len(words))
    rows = np.empty(len(words), dtype=np.int32)

    def endpoints(block: _Block):
        letters, a, b = block
        if orbit:
            z = (a * z0 + b) / (np.conj(b) * z0 + np.conj(a))
            hit = np.flatnonzero(np.abs(z) > 1.0 - delta)
            return len(letters), hit, circle_angle(z[hit])
        cyc = letters[:, 0] != -letters[:, -1]
        hit = np.flatnonzero(cyc & is_certainly_hyperbolic(a, b))
        return len(letters), hit, circle_angle(circle_fixed_points(a[hit], b[hit])[0])

    used = 0
    if orbit and abs(z0) > 1.0 - delta:
        # not circle_angle: np.angle rounds apart from cmath.phase at AVX-512 only
        theta[0], rows[0], used = reduce_angle(cmath.phase(z0)), 0, 1
    at = 1
    for count, hit, angles in _word_blocks(rep, words, endpoints):
        theta[used:used + len(hit)] = angles
        rows[used:used + len(hit)] = hit + at
        used += len(hit)
        at += count
    return theta[:used], rows[:used], words


def limit_sample(
    rep: GroupRep,
    base: DiskPoint,
    n: int,
    mode: SampleMode,
    delta: float = DEFAULT_DELTA,
) -> EndpointSample:
    """Finite approximation of the limit set / fixed-point set.

    ORBIT_PROJECTION radially projects orbit points with |z| > 1 - delta.
    AXIS_ENDPOINTS collects the attracting fixed point of every hyperbolic
    cyclically reduced word of length <= n, labelled with that word; its
    inverse, also in the table, gives the repelling one.  The net's kept
    angles and their words are gathered sector by sector, in the net's own
    tasks.
    """
    if n < 1:
        raise InvalidInput("limit_sample needs n >= 1")
    if mode is SampleMode.ORBIT_PROJECTION and not 0.0 < delta < 1.0:
        raise InvalidInput("delta must lie in (0, 1)")
    theta, rows, words = _endpoint_rows(rep, base, n, mode, delta)
    if len(theta) == 0:
        raise EmptySample(
            "no qualifying boundary points; increase n or loosen delta"
        )
    sectors = circle_net(theta,
                         lambda kept, angles: (angles, np.take(words, rows[kept], axis=0)))
    # the endpoints are gathered: free them before the sectors are joined
    del theta, rows, words
    angles, letters = map(np.concatenate, zip(*sectors))
    return EndpointSample(mode, angles, letters)


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
    `disk.circle_fixed_points` on its product (`_compose_rows`, as in the
    word table), or on its root r's where v = r^j is a proper power; the
    conjugator u is then applied letter by letter on the circle, where
    reduced-word ping-pong makes every step a contraction.  Rows advance
    together, one letter column at a time: the products on the rows in
    stable order of decreasing root length, the walk on the hyperbolic
    rows in stable order of decreasing conjugator length, so the rows a
    column takes are a prefix slice, and the angles are put back in input
    order once, at the end.  A row's angle depends on its row alone, so
    neither order nor the blocks a caller takes the rows in moves a bit
    (`boundary.induced_boundary_sample` takes blocks, to bound the memory
    of its temporaries).
    """
    rank = rep.rank
    letters = letters_within_rank(letters, rank)
    # the letters' entries by letter + rank; the middle row, padding letter
    # 0, is never read
    la, lb = (t[_letter_key(np.arange(-rank, rank + 1))] for t in _letter_matrices(rep))
    count, width = letters.shape
    rows = np.arange(count)
    length = np.count_nonzero(letters, axis=1)
    # cyclic split w = u v u^-1: u is the first `start` letters of the row
    start = np.zeros(count, dtype=np.intp)
    peel = np.ones(count, dtype=bool)
    for k in range(width // 2):
        last = letters[rows, np.maximum(length - 1 - k, 0)]
        peel &= (length - 2 * k >= 2) & (letters[:, k] == -last)
        if not peel.any():
            break
        start += peel
    core = length - 2 * start

    # rows by decreasing core length, so the rows whose core is longer
    # than c letters are the first live[c]; keys[c] is letter column c of
    # the rows in that order, plus rank
    order = np.argsort(-core, kind="stable")
    keys = np.add(letters[order].T, rank, dtype=np.intp, order="C")
    span = core.max(initial=0)
    cores = keys[:span]
    if start.any():
        # cores[c] is row letter start + c, clipped past the core, where
        # it is never read
        cores = np.take_along_axis(
            keys, np.minimum(start[order] + np.arange(span)[:, None], width - 1), axis=0)
    live = count - np.cumsum(np.bincount(core))
    # a core that is a proper power r^j has the fixed points of its root r,
    # and r's product, unlike r^j's, gathers no rounding error with j.  A
    # core of length m is a power of its first p letters, for p a proper
    # divisor of m, where its letters repeat with period p; root[i] is the
    # least such p of row i (written last), or its core length.  The rows
    # of core length m are live[m]:live[m-1].
    root = core[order]
    for m in range(2, span + 1):
        lo, hi = live[m], live[m - 1]
        if lo == hi:
            continue
        for p in range(m // 2, 0, -1):
            if m % p == 0:
                same = (cores[p:m, lo:hi] == cores[:m - p, lo:hi]).all(axis=0)
                root[lo + np.flatnonzero(same)] = p
    # each row multiplies its root's letters only: the rows by decreasing
    # root length, so the rows still multiplying at column c are the
    # first live[c]
    by = np.argsort(-root, kind="stable")
    order, cores = order[by], cores[:, by]
    live = count - np.cumsum(np.bincount(root))
    a = np.ones(count, dtype=complex)
    b = np.zeros(count, dtype=complex)
    for c in range(root.max(initial=0)):
        k = live[c]
        key = cores[c, :k]
        a[:k], b[:k] = _compose_rows(a[:k], b[:k], la[key], lb[key])

    ok = np.flatnonzero(is_certainly_hyperbolic(a, b))
    z, _ = circle_fixed_points(a[ok], b[ok])
    # the conjugator walk, on the hyperbolic rows by decreasing start
    lead = start[order[ok]]
    if lead.any():
        walk = np.argsort(-lead, kind="stable")
        ok, lead, z = ok[walk], lead[walk], z[walk]
        conjugators = keys[:lead[0], by[ok]]  # keys are in core order
        live = len(ok) - np.cumsum(np.bincount(lead))
        for c in range(lead[0] - 1, -1, -1):
            k = live[c]
            key = conjugators[c, :k]
            ga, gb, x = la[key], lb[key], z[:k]
            x = (ga * x + gb) / (gb.conj() * x + ga.conj())
            z[:k] = x / np.abs(x)
    out = np.full(count, np.nan)
    out[order[ok]] = circle_angle(z)
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
    """Free rank-2 Schottky group: the translations by the given length
    along the real and imaginary diameters, toward 1 and i, in closed form
    (cosh(s/2), sinh(s/2)) and (cosh(s/2), i sinh(s/2)).

    The four isometric circles must be pairwise disjoint (ping-pong),
    which pins the limit set to a Cantor set.  Of radius 1/sinh(s/2) and
    centred at +-coth(s/2), +-i coth(s/2), they are disjoint exactly when
    sqrt(2) cosh(s/2) > 2; not cosh(s/2) > sqrt(2), since cosh(s/2) rounds
    to sqrt(2) at s = 1.7627471740390863.  An s/2 that underflows fails it.
    """
    if not math.isfinite(separation):
        raise InvalidInput(f"separation {separation!r} must be finite")
    if separation <= 0.0:
        raise InvalidInput("separation must be positive")
    try:
        c, s = math.cosh(0.5 * separation), math.sinh(0.5 * separation)
    except OverflowError:
        raise NumericFailure(f"separation {separation!r} is too long: "
                             "its matrix entries overflow double precision") from None
    if math.sqrt(2.0) * c <= 2.0:
        raise CirclesOverlap(f"isometric circles overlap at separation {separation}; "
                             "ping-pong condition fails")
    return GroupRep((MobiusIsometry(c, s), MobiusIsometry(c, 1j * s)), label="schottky")


def cusped_torus_group() -> GroupRep:
    """Once-punctured square torus: two hyperbolic translations with
    perpendicular axes and parabolic commutator (trace -2)."""
    a = MobiusIsometry(math.sqrt(2.0), 1.0)
    b = MobiusIsometry(math.sqrt(2.0), 1j)
    return GroupRep((a, b), label="cusped-torus")
