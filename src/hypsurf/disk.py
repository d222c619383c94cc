"""Geometry of the open unit disk with the Poincare metric.

Points and the orientation-preserving isometries, stored as normalized
matrices

    [[a, b], [conj(b), conj(a)]],   |a|^2 - |b|^2 = 1,

acting by z -> (a z + b) / (conj(b) z + conj(a)); the hyperbolicity guard
and the circle fixed points of such a matrix, known up to a positive
scale; angles on the circle at infinity, reduced to [0, 2*pi); and
`circle_net`, the one rule by which sampled angles are merged at
TOL_ANGLE, taken in angle sectors on the worker threads of
`pool.ordered_map` when the input is large.  Everything here is immutable
and pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypsurf.errors import InvalidInput, NumericFailure
from hypsurf.pool import ordered_map

TWO_PI = 2.0 * math.pi

#: drift tolerance for the det-1 normalization of isometry matrices
TOL_MATRIX = 1e-12
#: past this entry size |a|^2 - |b|^2 = 1 is below the rounding of |a|^2
MAX_CERTIFIED_ENTRY = 2.0**26
#: angular resolution of sampled angles: `circle_net` merges them at it
TOL_ANGLE = 1e-9
#: hyperbolic means |b|^2 - (Im a)^2 > TOL_AXIS * |a|^2 (`is_certainly_hyperbolic`)
TOL_AXIS = 1e-9
#: `circle_net` sorts more than this many angles in one sector, on average
_SECTOR_MIN = 2**16


def reduce_angle(theta):
    """Reduce an angle, or each angle of an array, to [0, 2*pi)."""
    # float % and np.mod both shift a negative fmod remainder up by 2*pi,
    # which lands exactly on 2*pi for a tiny negative angle
    t = theta % TWO_PI
    if isinstance(t, np.ndarray):
        t[t >= TWO_PI] -= TWO_PI
    elif t >= TWO_PI:
        t -= TWO_PI
    return t


def circle_angle(z: np.ndarray) -> np.ndarray:
    """The angle of each point of a complex array, in [0, 2*pi):
    ``reduce_angle(np.angle(z))`` bit for bit, without the fmod."""
    t = np.angle(z)
    # on [-pi, pi] the remainder mod 2*pi is t or t + 2*pi, and -0.0 + 0.0
    # is +0.0, as it is for %; a tiny negative t rounds up to 2*pi, as there
    t += (t < 0.0) * TWO_PI
    over = t >= TWO_PI
    if over.any():
        t[over] -= TWO_PI
    return t


def circle_net(theta: np.ndarray,
               take: Callable[[np.ndarray, np.ndarray], object] | None = None):
    """Merge a nonempty array of angles in [0, 2*pi) into a TOL_ANGLE net
    of the circle, and return the indices of the kept angles in increasing
    order of angle: the net is ``theta[circle_net(theta)]``.  With
    ``take``, return instead the list of ``take(kept, angles)`` over the
    sectors below, in order, where ``kept`` are the sector's indices
    (joined, they are the indices above) and ``angles`` their angles, read
    from the sector's sort: theta[kept], but for the sign of a zero that
    ties with a zero of the other sign.  take runs in the sector's task.

    An angle within TOL_ANGLE of the last kept angle is dropped, and kept
    angles within TOL_ANGLE of the first + 2*pi fold into the first.  So
    kept neighbours, wraparound included, are more than TOL_ANGLE apart,
    and every angle lies within TOL_ANGLE of a kept one.  Of exactly equal
    angles, the earliest input entry is the one kept.  A dropped angle is
    a tie with a kept one at that resolution; samplers index every array
    aligned with theta by the same net.

    An input of at least three times `_SECTOR_MIN` angles is cut into one
    sector fewer than it holds `_SECTOR_MIN` angles (`_sector_cuts`), so a
    sector averages more than `_SECTOR_MIN` angles, and each sector's net
    runs as one `pool.ordered_map` task (`_sector_net`); a smaller input is
    one sector, netted on the caller's thread.  A sector's first angle
    starts a run, and so its net is the whole net's between the cuts, when
    every cut lies in a gap wider than TOL_ANGLE; that is checked on the
    sorted sectors, and where a run crosses a cut, the whole array is taken
    as one sector instead.  Exactly equal angles never straddle a cut, and
    only the sector of the largest angles holds angles that fold.
    """
    count = len(theta) // _SECTOR_MIN - 1
    first = theta.min()
    if count > 1:
        cuts = _sector_cuts(theta, count)
        step = -(-len(theta) // count)

        def group(lo: int):
            # the chunk's indices grouped by sector, in input order within
            # each, and where each sector's group starts
            sector = np.searchsorted(cuts, theta[lo:lo + step], side="right")
            sector = sector.astype(np.min_scalar_type(count))
            order = np.argsort(sector, kind="stable")
            at = np.searchsorted(sector, np.arange(count, dtype=sector.dtype), sorter=order)
            order = order.astype(np.min_scalar_type(len(theta)))
            order += lo
            return order, np.append(at, len(sector))

        def sector_net(k: int):
            index = np.concatenate([order[at[k]:at[k + 1]] for order, at in groups])
            return _sector_net(theta, index, first, take) if len(index) else None

        groups = list(ordered_map(group, range(0, len(theta), step)))
        nets = [net for net in ordered_map(sector_net, range(count)) if net is not None]
        del groups
        bounds = np.array([net[:2] for net in nets])
        if (bounds[1:, 0] - bounds[:-1, 1] > TOL_ANGLE).all():
            kept = [net[2] for net in nets]
            return np.concatenate(kept) if take is None else kept
        del nets
    kept = _sector_net(theta, None, first, take)[2]
    return kept if take is None else [kept]


def _sector_cuts(theta: np.ndarray, count: int) -> np.ndarray:
    """count - 1 increasing cuts that split theta into count sectors of
    about equal size: of a sorted strided sample of about 32 angles per
    sector, each cut is the midpoint of the widest gap between neighbours
    in the stretch of the sample around its quantile."""
    sample = np.sort(theta[::max(1, len(theta) // (32 * count))])
    gaps = np.diff(sample)
    width = len(sample) // count
    at = np.clip(np.arange(1, count) * width - width // 2, 0, len(gaps) - width)
    widest = at + np.argmax(np.lib.stride_tricks.sliding_window_view(gaps, width)[at], axis=1)
    return 0.5 * (sample[widest] + sample[widest + 1])


def _sector_net(theta: np.ndarray, index: np.ndarray | None, first: float, take):
    """`circle_net` of the angles theta[index] (of all of theta when index
    is None), where ``first`` is the least angle of theta: the first and
    last angle of the sector after sorting, and take of its kept indices
    (the indices themselves without take)."""
    x = theta if index is None else theta[index]
    order = np.argsort(x)
    t = x[order]
    del x
    if index is not None:
        order = index[order]
    n = len(t)
    # the first angle of each run, a stretch of angles each within
    # TOL_ANGLE of the one before, is kept
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.greater(np.diff(t), TOL_ANGLE, out=keep[1:])
    # inside a run, so is the first angle beyond TOL_ANGLE of the last kept
    # one, until the next run start; a run of two spans at most TOL_ANGLE,
    # so the rounds start only from longer runs
    last = np.flatnonzero(keep[:-2] & ~keep[1:-1] & ~keep[2:])
    while len(last):
        # an angle past the rounded sum t + TOL_ANGLE is more than
        # TOL_ANGLE from t (it lies an ulp of the sum on, and TOL_ANGLE's odd
        # last bit rounds the one tie up), but so may angles equal to a sum
        # that rounded up: step back over those
        nxt = np.searchsorted(t, t[last] + TOL_ANGLE, side="right")
        while (back := t[nxt - 1] - t[last] > TOL_ANGLE).any():
            nxt -= back
        nxt = nxt[nxt < n]
        last = nxt[~keep[nxt]]
        keep[last] = True
    # near 2*pi the subtraction is exact, so every folded angle lies at or
    # past the rounded first + 2*pi - TOL_ANGLE; the first angle itself
    # lies 2*pi from there and never folds
    tail = int(np.searchsorted(t, first + TWO_PI - TOL_ANGLE))
    folded = np.count_nonzero(keep[tail:] & (first + TWO_PI - t[tail:] <= TOL_ANGLE))
    # every kept position starts its run of exactly equal angles, and the
    # sort leaves such a run in any order: give the run's first position
    # the least input index in the run
    tie = np.flatnonzero(t[1:] == t[:-1])  # t[tie] == t[tie + 1]
    ends = t[0], t[-1]
    if len(tie):
        pair = np.minimum(order[tie], order[tie + 1])
        head = np.flatnonzero(np.diff(tie, prepend=-2) > 1)
        order[tie[head]] = np.minimum.reduceat(pair, head)
    m = np.count_nonzero(keep) - folded
    kept = order[keep][:m]
    return *ends, kept if take is None else take(kept, t[keep][:m])


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open disk; construction rejects |z| >= 1 and NaN."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if not abs(z) < 1.0:
            raise InvalidInput(f"not an interior point of the unit disk: |z| = {abs(z)!r}")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class MobiusIsometry:
    """Orientation-preserving isometry of the closed disk in normalized
    SU(1,1) form.

    ``a`` and ``b`` are renormalized at construction so |a|^2 - |b|^2 = 1
    exactly (up to rounding), which keeps the entries meaningful over long
    compositions; an entry of modulus `MAX_CERTIFIED_ENTRY` or more raises
    NumericFailure.
    """

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        size = max(abs(a), abs(b))
        q = abs(a) ** 2 - abs(b) ** 2 if size < MAX_CERTIFIED_ENTRY else math.nan
        if not q > 0.0:
            # past 1e7 a q <= 0 may be rounding's: its error is about |a|^2 * 1e-16.
            # A NaN part is no matrix at any size; max() would hide it behind
            # a first argument that is not NaN
            if size > 1e7 and not (cmath.isnan(a) or cmath.isnan(b)):
                raise NumericFailure(
                    "entries too large to certify a unit determinant "
                    f"(|a| = {abs(a):.3g}, |b| = {abs(b):.3g})"
                )
            raise InvalidInput(f"not conjugate to an SU(1,1) matrix: |a|^2-|b|^2 = {q!r}")
        # rescaling by a q that is itself noise would perturb the entries,
        # so the drift tolerance grows with the scale at which q can be known
        drift_floor = max(TOL_MATRIX, (abs(a) ** 2 + abs(b) ** 2) * 1e-14)
        if abs(q - 1.0) > drift_floor:
            s = 1.0 / math.sqrt(q)
            a *= s
            b *= s
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls) -> "MobiusIsometry":
        return cls(1.0, 0.0)

    def compose(self, other: "MobiusIsometry") -> "MobiusIsometry":
        """self after other as maps of the disk."""
        return MobiusIsometry(
            self.a * other.a + self.b * other.b.conjugate(),
            self.a * other.b + self.b * other.a.conjugate(),
        )

    def inverse(self) -> "MobiusIsometry":
        return MobiusIsometry(self.a.conjugate(), -self.b)


def is_certainly_hyperbolic(a, b):
    """Whether [[a, b], [conj b, conj a]] with positive determinant, known
    up to a positive scale, is certifiably hyperbolic; elementwise on
    arrays.  |b|^2 - (Im a)^2 = (Re a)^2 - det, so the test is scale-free.
    """
    return abs(b) ** 2 - a.imag ** 2 > TOL_AXIS * abs(a) ** 2


def circle_fixed_points(a, b):
    """Both circle fixed points (attracting, repelling) of a matrix
    [[a, b], [conj b, conj a]] that passes `is_certainly_hyperbolic`.

    ``a`` and ``b`` carry any positive scale; complex scalars give complex
    scalars and arrays give arrays.  The roots are z = (i Im a +/- r) / conj(b)
    with r = sqrt(|b|^2 - (Im a)^2).  Sign rule: there conj(b) z + conj(a)
    = Re a +/- r and |f'(z)| = det / (Re a +/- r)^2, so the attracting root
    takes the sign of Re a.
    """
    # Re a / |Re a|: the exact sign of Re a (nonzero here), cheaper than np.copysign
    root = np.sqrt(abs(b) ** 2 - a.imag ** 2) * (a.real / abs(a.real))
    cb = b.conjugate()
    return (1j * a.imag + root) / cb, (1j * a.imag - root) / cb
