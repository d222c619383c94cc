"""Geometry of the open unit disk with the Poincare metric.

Points, ideal boundary points, geodesics, half planes, and the isometry
group.  Orientation-preserving isometries are stored as normalized
matrices

    [[a, b], [conj(b), conj(a)]],   |a|^2 - |b|^2 = 1,

acting by z -> (a z + b) / (conj(b) z + conj(a)); an optional flag turns
m into the orientation-reversing map z -> m(conj(z)).  Everything here is
immutable and pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from hypsurf.errors import (
    AmbiguousClass,
    CoincidentPoints,
    EmptySet,
    IdentityInput,
    InvalidInput,
    NonpositiveLength,
    NotHyperbolic,
    NumericFailure,
)

TWO_PI = 2.0 * math.pi

#: drift tolerance for the det-1 normalization of isometry matrices
TOL_MATRIX = 1e-12
#: half-width of the parabolic trace band used by `classify`
TOL_CLASS = 1e-9
#: angular tolerance for ideal-point dedup and geodesic degeneracy
TOL_ANGLE = 1e-9
#: inside the trace band, |b| at least this large reads as a genuine parabolic
PARABOLIC_MIN_B = 1e-6
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


def angle_distance(t1: float, t2: float) -> float:
    """Shortest circular distance between two angles, in [0, pi]."""
    d = abs(reduce_angle(t1) - reduce_angle(t2))
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open disk; construction rejects |z| >= 1."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if abs(z) >= 1.0:
            raise InvalidInput(f"not an interior point of the unit disk: |z| = {abs(z)!r}")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class IdealPoint:
    """A point of the circle at infinity, stored as an angle in [0, 2*pi).

    Equality of the dataclass is exact on the reduced angle; use
    `close_to` for tolerance-based comparison.
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

    def close_to(self, other: "IdealPoint", tol: float = TOL_ANGLE) -> bool:
        return angle_distance(self.theta, other.theta) <= tol


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic, recorded by its ordered pair of ideal endpoints.

    The pair is ordered for the sake of direction conventions (a
    translation along the geodesic attracts toward ``e1``); as a point
    set the geodesic does not depend on the order, and `same_as` compares
    unordered.
    """

    e1: IdealPoint
    e2: IdealPoint

    def __post_init__(self):
        if angle_distance(self.e1.theta, self.e2.theta) <= TOL_ANGLE:
            raise CoincidentPoints("geodesic endpoints coincide")

    def reversed(self) -> "Geodesic":
        return Geodesic(self.e2, self.e1)

    def same_as(self, other: "Geodesic", tol: float = TOL_ANGLE) -> bool:
        return (
            self.e1.close_to(other.e1, tol) and self.e2.close_to(other.e2, tol)
        ) or (self.e1.close_to(other.e2, tol) and self.e2.close_to(other.e1, tol))

    def is_diameter(self, tol: float = TOL_ANGLE) -> bool:
        return abs(angle_distance(self.e1.theta, self.e2.theta) - math.pi) <= tol


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HalfPlane:
    """Union of a geodesic and one component of its complement.

    The side selector is relative to the orientation of the boundary
    geodesic from ``e1`` toward ``e2``.
    """

    boundary: Geodesic
    side: Side

    def contains(self, p: DiskPoint | IdealPoint, tol: float = 1e-12) -> bool:
        # Im[(z - u)/(z - v)] vanishes exactly on the boundary circle
        # through u, v and has constant sign on each component.
        u = self.boundary.e1.z
        v = self.boundary.e2.z
        z = p.z
        if abs(z - v) < 1e-15:
            return True  # the endpoint v itself
        s = ((z - u) / (z - v)).imag
        if self.side is Side.LEFT:
            return s <= tol
        return s >= -tol


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class MobiusIsometry:
    """Isometry of the closed disk in normalized SU(1,1) form.

    ``a`` and ``b`` are renormalized at construction so |a|^2 - |b|^2 = 1
    exactly (up to rounding), which keeps trace-based classification
    stable over long compositions.  With ``reverses_orientation`` set the
    map is z -> M(conj(z)).
    """

    a: complex
    b: complex
    reverses_orientation: bool = False

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

    # -- algebra ------------------------------------------------------------

    @classmethod
    def identity(cls) -> "MobiusIsometry":
        return cls(1.0, 0.0)

    @classmethod
    def rotation(cls, theta: float) -> "MobiusIsometry":
        """Rotation about the origin by theta."""
        return cls(cmath.exp(0.5j * theta), 0.0)

    @classmethod
    def point_to_origin(cls, p: DiskPoint) -> "MobiusIsometry":
        """The isometry z -> (z - p)/(1 - conj(p) z) sending p to 0."""
        s = math.sqrt(1.0 - abs(p.z) ** 2)
        return cls(1.0 / s, -p.z / s)

    def compose(self, other: "MobiusIsometry") -> "MobiusIsometry":
        """self after other as maps of the disk."""
        a2, b2 = other.a, other.b
        if self.reverses_orientation:
            a2, b2 = a2.conjugate(), b2.conjugate()
        return MobiusIsometry(
            self.a * a2 + self.b * b2.conjugate(),
            self.a * b2 + self.b * a2.conjugate(),
            self.reverses_orientation ^ other.reverses_orientation,
        )

    def inverse(self) -> "MobiusIsometry":
        a, b = self.a.conjugate(), -self.b
        if self.reverses_orientation:
            a, b = a.conjugate(), b.conjugate()
        return MobiusIsometry(a, b, self.reverses_orientation)

    def __call__(self, x):
        return apply(self, x)

    # -- probes ---------------------------------------------------------------

    def is_identity(self, tol: float = TOL_MATRIX) -> bool:
        """True for +/- the identity matrix (the identity map), flag apart."""
        if self.reverses_orientation:
            return False
        return abs(self.b) <= tol and abs(self.a.imag) <= tol and abs(abs(self.a.real) - 1.0) <= tol

    def matrix(self):
        return np.array(
            [[self.a, self.b], [self.b.conjugate(), self.a.conjugate()]], dtype=complex
        )

    def translation_length(self) -> float:
        """Translation length along the axis; hyperbolic maps only."""
        if classify(self) is not IsometryClass.HYPERBOLIC:
            raise NotHyperbolic("translation length needs a hyperbolic isometry")
        return 2.0 * math.acosh(abs(self.a.real))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "a": [self.a.real, self.a.imag],
            "b": [self.b.real, self.b.imag],
            "rev": self.reverses_orientation,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MobiusIsometry":
        return cls(
            complex(obj["a"][0], obj["a"][1]),
            complex(obj["b"][0], obj["b"][1]),
            bool(obj.get("rev", False)),
        )


def hyp_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance (curvature -1 normalization)."""
    num = abs(p.z - q.z)
    den = abs(1.0 - p.z.conjugate() * q.z)
    t = num / den
    if t >= 1.0:
        raise NumericFailure("distance overflow near the boundary")
    return 2.0 * math.atanh(t)


def apply(m: MobiusIsometry, x: DiskPoint | IdealPoint):
    """Apply an isometry; DiskPoint in, DiskPoint out, same for IdealPoint."""
    if isinstance(x, DiskPoint):
        z = x.z.conjugate() if m.reverses_orientation else x.z
        den = m.b.conjugate() * z + m.a.conjugate()
        if abs(den) < 1e-300:
            raise NumericFailure("isometry denominator underflow")
        w = (m.a * z + m.b) / den
        if abs(w) >= 1.0:
            raise NumericFailure("image escaped the open disk (boundary overflow)")
        return DiskPoint(w)
    if isinstance(x, IdealPoint):
        z = x.z.conjugate() if m.reverses_orientation else x.z
        w = (m.a * z + m.b) / (m.b.conjugate() * z + m.a.conjugate())
        return IdealPoint(cmath.phase(w))
    raise InvalidInput(f"cannot apply an isometry to {type(x).__name__}")


def classify(m: MobiusIsometry) -> IsometryClass:
    """Trichotomy by |Re a| against 1 with an explicit tolerance band.

    For an SU(1,1) matrix the fixed-point discriminant is 4((Re a)^2 - 1),
    so |Re a| > 1 is hyperbolic, < 1 elliptic, = 1 parabolic or the
    identity.  Inside the +/- TOL_CLASS band the sign of the discriminant
    is below noise: the map is reported as PARABOLIC only when it carries
    a visible translation part (|b| >= PARABOLIC_MIN_B), as IDENTITY when
    it is +/-id, and otherwise the ambiguity is surfaced as an error.

    Orientation-reversing maps are classified by their matrix part; the
    flag travels separately on the isometry itself.
    """
    if m.is_identity():
        return IsometryClass.IDENTITY
    t = abs(m.a.real)
    if t > 1.0 + TOL_CLASS:
        return IsometryClass.HYPERBOLIC
    if t < 1.0 - TOL_CLASS:
        return IsometryClass.ELLIPTIC
    if abs(m.b) >= PARABOLIC_MIN_B:
        return IsometryClass.PARABOLIC
    raise AmbiguousClass(
        f"|Re a| = {t!r} lies in the parabolic band but |b| = {abs(m.b)!r} "
        "is too small to call it: not clearly parabolic, elliptic, or identity"
    )


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


def fixed_points(m: MobiusIsometry) -> list[IdealPoint]:
    """Fixed points on the circle at infinity; attracting first.

    Hyperbolic maps return two points (`circle_fixed_points`), parabolic
    one, elliptic none.
    """
    if m.reverses_orientation:
        raise InvalidInput("fixed points on the circle are computed for "
                           "orientation-preserving isometries only")
    cls = classify(m)
    if cls is IsometryClass.IDENTITY:
        raise IdentityInput("every point is fixed")
    if cls is IsometryClass.ELLIPTIC:
        return []
    if cls is IsometryClass.PARABOLIC:
        z = 1j * m.a.imag / m.b.conjugate()
        return [IdealPoint(cmath.phase(z))]
    return [IdealPoint(cmath.phase(z)) for z in circle_fixed_points(m.a, m.b)]


def axis(m: MobiusIsometry) -> Geodesic:
    """Invariant geodesic of a hyperbolic isometry, attracting endpoint first."""
    if m.reverses_orientation or classify(m) is not IsometryClass.HYPERBOLIC:
        raise NotHyperbolic("axis is defined for hyperbolic isometries")
    att, rep = fixed_points(m)
    return Geodesic(att, rep)


def geodesic_through(x: DiskPoint | IdealPoint, y: DiskPoint | IdealPoint) -> Geodesic:
    """The unique complete geodesic through two distinct points.

    The first returned endpoint is the one on the y side of x.
    """
    if isinstance(x, IdealPoint) and isinstance(y, IdealPoint):
        if x.close_to(y):
            raise CoincidentPoints("ideal endpoints coincide")
        return Geodesic(y, x)
    if isinstance(y, DiskPoint) and isinstance(x, IdealPoint):
        g = geodesic_through(y, x)
        return g.reversed()
    # x is interior: normalize it to the origin, where geodesics are diameters
    t = MobiusIsometry.point_to_origin(x)
    w = apply(t, y)
    if isinstance(w, DiskPoint):
        if abs(w.z) <= 1e-14:
            raise CoincidentPoints("points coincide")
        forward = IdealPoint(cmath.phase(w.z))
    else:
        forward = w
    back = IdealPoint(forward.theta + math.pi)
    tinv = t.inverse()
    return Geodesic(apply(tinv, forward), apply(tinv, back))


def euclidean_diameter(points) -> float:
    """Largest pairwise Euclidean distance over a finite point set."""
    zs = [p.z for p in points]
    if not zs:
        raise EmptySet("euclidean_diameter of an empty set")
    if len(zs) == 1:
        return 0.0
    arr = np.array(zs, dtype=complex)
    return float(np.abs(arr[:, None] - arr[None, :]).max())


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
