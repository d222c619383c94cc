"""Geometry of the open unit disk with the Poincare metric.

Points, ideal boundary points, geodesics, and the orientation-preserving
isometries, stored as normalized matrices

    [[a, b], [conj(b), conj(a)]],   |a|^2 - |b|^2 = 1,

acting by z -> (a z + b) / (conj(b) z + conj(a)); the hyperbolicity guard
and the circle fixed points of such a matrix, known up to a positive
scale; translations along geodesics; and `circle_net`, the one rule by
which sampled angles are merged at TOL_ANGLE.  Everything here is
immutable and pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from hypsurf.errors import (
    CoincidentPoints,
    InvalidInput,
    NonpositiveLength,
    NumericFailure,
)

TWO_PI = 2.0 * math.pi

#: drift tolerance for the det-1 normalization of isometry matrices
TOL_MATRIX = 1e-12
#: angular tolerance for ideal-point dedup and geodesic degeneracy
TOL_ANGLE = 1e-9
#: hyperbolic means |b|^2 - (Im a)^2 > TOL_AXIS * |a|^2 (`is_certainly_hyperbolic`)
TOL_AXIS = 1e-9


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


def angle_distance(t1, t2):
    """Shortest circular distance between two angles, or elementwise
    between arrays of angles, in [0, pi]."""
    d = abs(reduce_angle(t1) - reduce_angle(t2))
    return np.minimum(d, TWO_PI - d)


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


def circle_net(theta: np.ndarray) -> np.ndarray:
    """Merge a nonempty array of angles in [0, 2*pi) into a TOL_ANGLE net
    of the circle, and return the indices of the kept angles in increasing
    order of angle: the net is ``theta[circle_net(theta)]``.

    An angle within TOL_ANGLE of the last kept angle is dropped, and kept
    angles within TOL_ANGLE of the first + 2*pi fold into the first.  So
    kept neighbours, wraparound included, are more than TOL_ANGLE apart,
    and every angle lies within TOL_ANGLE of a kept one.  Of exactly equal
    angles, the earliest input entry is the one kept.  A dropped angle is
    a tie with a kept one at that resolution; samplers index every array
    aligned with theta by the same net.
    """
    order = np.argsort(theta)
    t = theta[order]
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
    # past the rounded t[0] + 2*pi - TOL_ANGLE
    tail = max(1, int(np.searchsorted(t, t[0] + TWO_PI - TOL_ANGLE)))
    folded = np.count_nonzero(keep[tail:] & (t[0] + TWO_PI - t[tail:] <= TOL_ANGLE))
    # every kept position starts its run of exactly equal angles, and the
    # sort leaves such a run in any order: give the run's first position
    # the least input index in the run
    tie = np.flatnonzero(t[1:] == t[:-1])  # t[tie] == t[tie + 1]
    del t
    if len(tie):
        pair = np.minimum(order[tie], order[tie + 1])
        head = np.flatnonzero(np.diff(tie, prepend=-2) > 1)
        order[tie[head]] = np.minimum.reduceat(pair, head)
    kept = order[keep]
    return kept[:len(kept) - folded]


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
class IdealPoint:
    """A point of the circle at infinity, stored as an angle in [0, 2*pi).

    Equality of the dataclass is exact on the reduced angle.
    """

    theta: float

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise InvalidInput(f"ideal point angle {theta!r} is not finite")
        object.__setattr__(self, "theta", reduce_angle(theta))

    @property
    def z(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic, recorded by its ordered pair of ideal endpoints.

    The pair is ordered for the sake of direction conventions (a
    translation along the geodesic attracts toward ``e1``); as a point
    set the geodesic does not depend on the order.
    """

    e1: IdealPoint
    e2: IdealPoint

    def __post_init__(self):
        if angle_distance(self.e1.theta, self.e2.theta) <= TOL_ANGLE:
            raise CoincidentPoints("geodesic endpoints coincide")


@dataclass(frozen=True)
class MobiusIsometry:
    """Orientation-preserving isometry of the closed disk in normalized
    SU(1,1) form.

    ``a`` and ``b`` are renormalized at construction so |a|^2 - |b|^2 = 1
    exactly (up to rounding), which keeps the entries meaningful over long
    compositions.
    """

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        q = abs(a) ** 2 - abs(b) ** 2
        if not math.isfinite(q) or q <= 0.0:
            if max(abs(a), abs(b)) > 1e7:
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


def apply(m: MobiusIsometry, x: DiskPoint | IdealPoint):
    """Apply an isometry; DiskPoint in, DiskPoint out, same for IdealPoint."""
    if isinstance(x, DiskPoint):
        den = m.b.conjugate() * x.z + m.a.conjugate()
        if abs(den) < 1e-300:
            raise NumericFailure("isometry denominator underflow")
        w = (m.a * x.z + m.b) / den
        if abs(w) >= 1.0:
            raise NumericFailure("image escaped the open disk (boundary overflow)")
        return DiskPoint(w)
    if isinstance(x, IdealPoint):
        w = (m.a * x.z + m.b) / (m.b.conjugate() * x.z + m.a.conjugate())
        return IdealPoint(cmath.phase(w))
    raise InvalidInput(f"cannot apply an isometry to {type(x).__name__}")


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


def translation_along(g: Geodesic, length: float) -> MobiusIsometry:
    """Hyperbolic translation along g by the given length, toward g.e1.

    Built as S^-1 diag(e^{-t/2}, e^{t/2}) S with S the Mobius matrix
    sending (e1, e2) to (0, oo); the derivative at the attracting fixed
    point e1 is then e^{-t}.
    """
    if not (length > 0.0) or not math.isfinite(length):
        raise NonpositiveLength(f"translation length must be positive, got {length!r}")
    p = g.e1.z
    q = g.e2.z
    u = math.exp(-0.5 * length)
    v = math.exp(0.5 * length)
    det = p - q  # det of S = [[1, -p], [1, -q]]
    m11 = (-q * u + p * v) / det
    m12 = (q * p * u - p * q * v) / det
    m21 = (-u + v) / det
    m22 = (p * u - q * v) / det
    # exact arithmetic gives SU(1,1) form; symmetrize away the rounding
    a = 0.5 * (m11 + m22.conjugate())
    b = 0.5 * (m12 + m21.conjugate())
    if abs(m11 - m22.conjugate()) > 1e-8 or abs(m12 - m21.conjugate()) > 1e-8:
        raise NumericFailure("translation construction drifted off SU(1,1)")
    return MobiusIsometry(a, b)
