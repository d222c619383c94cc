"""Hyperbolic metrics from generalized pairs of pants.

A pants with cuff lengths (x1, x2, x3), zeros meaning cusps, always
exists; its seams (the perpendiculars between cuffs) come out of
right-angled-hexagon trigonometry, and its area is 2*pi.  Pants are
glued along equal-length cuffs into decomposition plans realizing a
hyperbolic metric on any finite-type surface with negative Euler
characteristic, with prescribed compact boundary lengths and cusps at
the annular ends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, NoReturn

from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    LengthCountMismatch,
    LengthMismatch,
    NegativeLength,
    NotHyperbolizable,
)
from hypsurf.signature import Signature

PANTS_AREA = 2.0 * math.pi
#: horocycle normalization length attached to every cusp cuff
CUSP_HOROCYCLE_LENGTH = 2.0
#: length of every internal gluing curve
DEFAULT_GLUING_LENGTH = 1.0
#: the most pants `plan_decomposition` builds
MAX_PANTS = 100_000


@dataclass(frozen=True)
class CuffLengths:
    """Boundary lengths of one pants; 0 encodes a cusp."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInput(f"cuff length {name} = {v!r} must be finite")
            if v < 0.0:
                raise NegativeLength(f"cuff length {name} = {v!r} must be >= 0")
            # -0.0 + 0.0 is +0.0: a cusp has one value and one text
            object.__setattr__(self, name, v + 0.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class PantsGeometry:
    """Cuffs plus the three seams d12, d23, d31 (inf next to a cusp)."""

    cuffs: CuffLengths
    d12: float
    d23: float
    d31: float
    area: ClassVar[float] = PANTS_AREA
    cusp_horocycle: ClassVar[float] = CUSP_HOROCYCLE_LENGTH

    def seams(self) -> tuple[float, float, float]:
        return (self.d12, self.d23, self.d31)

    def to_json(self) -> dict:
        def enc(x: float):
            return "inf" if math.isinf(x) else x

        return {
            "cuffs": list(self.cuffs.as_tuple()),
            "seams": {"d12": enc(self.d12), "d23": enc(self.d23), "d31": enc(self.d31)},
            "area": self.area,
            "cusp_horocycle": self.cusp_horocycle,
        }


_LOG2 = math.log(2.0)


def _seam(xi: float, xj: float, xk: float) -> float:
    """Perpendicular distance d between cuffs i and j; the third cuff sits
    opposite.  The hexagon formula cosh d = (cosh(xi/2) cosh(xj/2) +
    cosh(xk/2)) / (sinh(xi/2) sinh(xj/2)), divided through by
    e^((xi + xj)/2), is

        cosh d - 1 = u = 2 (e^-xi + e^-xj + e^((xk - xi - xj)/2)
                            + e^(-(xk + xi + xj)/2)) / (expm1(-xi) expm1(-xj)),

    a sum of positive terms, so log u = top + rest is a log-sum-exp that
    no finite cuff overflows or underflows, and d = acosh(1 + u) =
    log1p(u + sqrt(u (u + 2))).  Past u = e^300 that is log u + log 2 to
    double precision, and below u = e^-40 it is sqrt(2u), taken as
    e^(top/2) sqrt(2 e^rest) so that a seam whose u underflows stays
    nonzero.  A cusp on either adjacent cuff pushes the seam to infinity."""
    if xi == 0.0 or xj == 0.0:
        return math.inf
    # xk - max cancels only when xk is within a factor 2 of it, and is exact there
    opposite = 0.5 * ((xk - max(xi, xj)) - min(xi, xj))
    exponents = (-xi, -xj, opposite, -0.5 * xk - 0.5 * xi - 0.5 * xj)
    top = max(exponents)
    rest = (math.log(2.0 * sum(math.exp(e - top) for e in exponents))
            - _log1mexp(xi) - _log1mexp(xj))
    log_u = top + rest
    if log_u > 300.0:
        return log_u + _LOG2
    if log_u < -40.0:
        return math.exp(0.5 * top) * math.sqrt(2.0 * math.exp(rest))
    u = math.exp(log_u)
    return math.log1p(u + math.sqrt(u * (u + 2.0)))


def _log1mexp(x: float) -> float:
    """log(1 - e^-x) for x > 0, accurate at both ends (Maechler 2012)."""
    if x <= _LOG2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def build_pants(x: CuffLengths) -> PantsGeometry:
    """Generalized pair of pants with the given cuff lengths."""
    x1, x2, x3 = x.as_tuple()
    return PantsGeometry(
        cuffs=x,
        d12=_seam(x1, x2, x3),
        d23=_seam(x2, x3, x1),
        d31=_seam(x3, x1, x2),
    )


def hexagon_identity_residual(x: CuffLengths, geometry: PantsGeometry) -> float:
    """Max defect of the right-angled-hexagon identity over the three
    cuff/seam matchings; cusp-adjacent (infinite) seams are skipped."""
    xs = x.as_tuple()
    seams = geometry.seams()
    worst = 0.0
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        d = seams[i]  # seams are (d12, d23, d31): seams[i] joins cuffs i and (i+1) % 3
        if math.isinf(d):
            continue
        lhs = math.sinh(0.5 * xs[i]) * math.sinh(0.5 * xs[j]) * math.cosh(d)
        rhs = math.cosh(0.5 * xs[i]) * math.cosh(0.5 * xs[j]) + math.cosh(0.5 * xs[k])
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


# ---------------------------------------------------------------------------
# decomposition plans

#: twist of every gluing
GLUING_TWIST = 0.0


def slot_name(slot: int) -> str:
    """`p{i}.c{k}`, the name of slot 3i + k: cuff k of pants i."""
    return f"p{slot // 3}.c{slot % 3}"


@dataclass(frozen=True)
class PantsDecompositionPlan:
    """Pants as cuff triples plus a complete accounting of their 3P cuff
    slots by index.  Pants i is `p{i}`, and its cuff k is slot 3i + k.
    Every slot is claimed exactly once: by a gluing (a slot pair), a
    crosscap, an external boundary or a cusp.  Each length is stored
    once, as its cuff.  Construction runs `_check_plan`, so every plan
    object has passed it."""

    pants: tuple[tuple[float, float, float], ...]
    gluings: tuple[tuple[int, int], ...]
    crosscaps: tuple[int, ...]
    boundary: tuple[int, ...]
    cusps: tuple[int, ...]

    def __post_init__(self):
        # frozen and made of tuples, a plan that passed stays valid;
        # `dataclasses.replace` builds a new object, checked in turn
        _check_plan(self)


def plan_decomposition(
    s: Signature,
    boundary_lengths: tuple[float, ...] = (),
) -> PantsDecompositionPlan:
    """Generalized pants decomposition of the finite-type surface s.

    Cutting g handle curves and c crosscap curves leaves a sphere with
    2g + c + b holes and a punctures, which a chain of n = -chi(s) pants
    fills: pants i and i+1 are glued along p{i}.c2 and p{i+1}.c0.  The
    hole slots, in chain order p0.c0, p0.c1, p1.c1, ..., p{n-1}.c1,
    p{n-1}.c2, are taken in runs: 2g handle slots reglued in pairs, c
    crosscap slots self-identified, b boundary slots with the prescribed
    lengths, and a cusp slots.  Internal curves have length 1 and twist 0.
    The plan is validated as it is constructed.  A surface that needs more
    than `MAX_PANTS` pants raises BudgetExceeded before any is built.
    """
    chi = s.chi()
    if chi >= 0:
        raise NotHyperbolizable(f"chi = {chi} >= 0 admits no hyperbolic metric")
    if -chi > MAX_PANTS:
        raise BudgetExceeded(f"{-chi} pants exceed the budget of {MAX_PANTS}")
    lengths = tuple(float(x) for x in boundary_lengths)
    if len(lengths) != s.b:
        raise LengthCountMismatch(
            f"{s.b} boundary circles but {len(lengths)} lengths given"
        )
    for x in lengths:
        if not math.isfinite(x):
            raise InvalidInput(f"boundary length {x!r} must be finite")
        if x <= 0.0:
            raise NegativeLength(f"boundary length {x!r} must be positive")

    slots = 3 * -chi
    holes = [0, *range(1, slots, 3), slots - 1]
    # ends of the handle, crosscap and boundary runs
    h, c, b = 2 * s.g, 2 * s.g + s.c, 2 * s.g + s.c + s.b
    hole_lengths = (DEFAULT_GLUING_LENGTH,) * c + lengths + (0.0,) * s.a
    chain = (DEFAULT_GLUING_LENGTH,) * (-chi - 1)
    return PantsDecompositionPlan(
        pants=tuple(zip(hole_lengths[:1] + chain, hole_lengths[1:-1], chain + hole_lengths[-1:])),
        gluings=tuple(zip(range(2, slots - 3, 3), range(3, slots, 3)))
        + tuple(zip(holes[0:h:2], holes[1:h:2])),
        crosscaps=tuple(holes[h:c]),
        boundary=tuple(holes[c:b]),
        cusps=tuple(holes[b:]),
    )


def _check_plan(plan: PantsDecompositionPlan) -> None:
    """The one check of a plan and of its cuffs, linear in its size.

    The columns, each pants and each gluing are tuples, so a plan that
    passed stays as it was checked.  Every pants has three cuffs, every
    gluing two slots, and the claimed slots (both of each gluing, each
    crosscap, boundary and cusp) are the ints 0 .. 3P - 1, each claimed
    once; otherwise InvalidInput naming the fault.  Every cuff is a finite
    float (InvalidInput) and at least +0 (NegativeLength, -0.0 included),
    the two cuffs of a gluing are equal and a cusp's cuff is 0
    (LengthMismatch), and a crosscap's cuff is positive (NegativeLength).
    """
    columns = (plan.pants, plan.gluings, plan.crosscaps, plan.boundary, plan.cusps)
    if not ({*map(type, columns)} <= {tuple}
            and {*map(type, plan.pants), *map(type, plan.gluings)} <= {tuple}):
        _raise_accounting(plan)
    claimed = list(itertools.chain.from_iterable(plan.gluings))
    claimed += plan.crosscaps
    claimed += plan.boundary
    claimed += plan.cusps
    n = 3 * len(plan.pants)
    if not ({*map(len, plan.pants)} <= {3} and {*map(len, plan.gluings)} <= {2}
            and {*map(type, claimed)} <= {int}
            and len(claimed) == len(set(claimed)) == n
            and min(claimed, default=0) >= 0 and max(claimed, default=0) < n):
        _raise_accounting(plan)
    cuffs = list(itertools.chain.from_iterable(plan.pants))
    if not {*map(type, cuffs)} <= {float}:
        slot = next(i for i, x in enumerate(cuffs) if type(x) is not float)
        raise InvalidInput(f"cuff {slot_name(slot)} = {cuffs[slot]!r} is not a float")
    for slot, x in enumerate(cuffs):
        # NaN fails both tests, and only the sign tells -0.0 from 0.0
        if not (0.0 < x < math.inf or x == 0.0 and math.copysign(1.0, x) > 0.0):
            if not math.isfinite(x):
                raise InvalidInput(f"cuff {slot_name(slot)} = {x!r} must be finite")
            raise NegativeLength(f"cuff {slot_name(slot)} = {x!r} must be >= +0")
    unequal = [f"{slot_name(i)}={cuffs[i]!r} to {slot_name(j)}={cuffs[j]!r}"
               for i, j in plan.gluings if cuffs[i] != cuffs[j]]
    if unequal:
        raise LengthMismatch(f"{len(unequal)} gluings join unequal cuffs: {', '.join(unequal)}")
    for slot in plan.crosscaps:
        if cuffs[slot] == 0.0:
            raise NegativeLength(f"crosscap cuff {slot_name(slot)} needs positive length")
    for slot in plan.cusps:
        if cuffs[slot] != 0.0:
            raise LengthMismatch(f"cusp cuff {slot_name(slot)} = {cuffs[slot]!r} must be 0")


def _raise_accounting(plan: PantsDecompositionPlan) -> NoReturn:
    """Name what breaks a plan's slot accounting: a column that is not a
    tuple, a pants that is not a tuple of three cuffs, a gluing that is not
    a tuple of two slots, then the claims in order (a slot that is not an
    int, a slot used twice), then missing and extra slots.  An in-range
    slot is named `p{i}.c{k}`, any other by its value."""
    for name in ("pants", "gluings", "crosscaps", "boundary", "cusps"):
        column = getattr(plan, name)
        if type(column) is not tuple:
            raise InvalidInput(f"plan column {name} has type {type(column).__name__}, not tuple")
    for i, p in enumerate(plan.pants):
        if type(p) is not tuple:
            raise InvalidInput(f"pants p{i} has type {type(p).__name__}, not tuple")
        if len(p) != 3:
            raise InvalidInput(f"pants p{i} has {len(p)} cuffs, not 3")
    for g in plan.gluings:
        if type(g) is not tuple:
            raise InvalidInput(f"gluing {g!r} has type {type(g).__name__}, not tuple")
        if len(g) != 2:
            raise InvalidInput(f"gluing {g!r} has {len(g)} slots, not 2")
    n = 3 * len(plan.pants)
    seen: dict[int, str] = {}
    claims = itertools.chain(
        zip(itertools.chain.from_iterable(plan.gluings), itertools.repeat("gluing")),
        zip(plan.crosscaps, itertools.repeat("crosscap")),
        zip(plan.boundary, itertools.repeat("boundary")),
        zip(plan.cusps, itertools.repeat("cusp")),
    )
    for slot, how in claims:
        if type(slot) is not int:
            raise InvalidInput(f"{how} slot {slot!r} is not an int")
        if slot in seen:
            name = slot_name(slot) if 0 <= slot < n else slot
            raise InvalidInput(f"slot {name} used twice ({seen[slot]} and {how})")
        seen[slot] = how
    missing = [slot_name(s) for s in range(n) if s not in seen]
    extra = [s for s in seen if not 0 <= s < n]
    raise InvalidInput(f"slot accounting broken: missing {missing}, extra {extra}")


@dataclass(frozen=True)
class MetricSummary:
    total_area: float
    pants_count: int


def realize(plan: PantsDecompositionPlan) -> MetricSummary:
    """Fit the pants metrics together and total the area (2*pi per
    pants).  A pants exists for every finite, nonnegative cuff triple,
    which is what constructing the plan checked, so no seam is built: a
    plan's output carries none."""
    return MetricSummary(total_area=PANTS_AREA * len(plan.pants), pants_count=len(plan.pants))
