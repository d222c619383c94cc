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
import sys
from dataclasses import dataclass
from typing import ClassVar

from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    LengthCountMismatch,
    LengthMismatch,
    NegativeLength,
    NotHyperbolizable,
    NumericFailure,
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
    """Generalized pair of pants with the given cuff lengths.  A finite
    seam below the smallest normal double (about 2.2e-308) has lost
    relative precision, or rounded to 0, and raises NumericFailure: past
    cuffs of about 2,836 when all three are equal, or of about 1,420 for
    the seam between two long cuffs beside a short one."""
    x1, x2, x3 = x.as_tuple()
    seams = {"d12": _seam(x1, x2, x3), "d23": _seam(x2, x3, x1), "d31": _seam(x3, x1, x2)}
    for name, d in seams.items():
        if d < sys.float_info.min:
            raise NumericFailure(f"seam {name} = {d!r} is below the smallest normal double "
                                 f"{sys.float_info.min!r}")
    return PantsGeometry(cuffs=x, **seams)


# ---------------------------------------------------------------------------
# decomposition plans

#: twist of every gluing
GLUING_TWIST = 0.0


def slot_names(pants: int) -> list[str]:
    """The name of every slot of a plan of this many pants, in slot order:
    slot 3i + k, cuff k of pants i, is `p{i}.c{k}`."""
    return [f"p{i}.c{k}" for i in range(pants) for k in range(3)]


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
    """The one check of a plan and of its cuffs, one linear pass.

    Each test runs on a whole column at once, and only a failing test
    walks the column to name its first offender, so a valid plan builds
    no slot names.  The faults are InvalidInput, named in this order: a
    column that is not a tuple, so a plan that passed stays as it was
    checked; a pants that is not a tuple of three cuffs; a gluing that is
    not a tuple of two slots; in claim order (both slots of each gluing,
    then each crosscap, boundary and cusp), a slot that is not an int or
    is claimed twice; then the slots 0 .. 3P - 1 left unclaimed and the
    claims outside them.  An in-range slot is named `p{i}.c{k}`, any other
    by its value.  Then every cuff is a finite float (InvalidInput) and
    at least +0 (NegativeLength, -0.0 included), the two cuffs of a
    gluing are equal (LengthMismatch), a crosscap's and a boundary's cuff
    are positive (NegativeLength), and a cusp's cuff is 0 (LengthMismatch).
    """
    columns = (plan.pants, plan.gluings, plan.crosscaps, plan.boundary, plan.cusps)
    if not {*map(type, columns)} <= {tuple}:
        fields = ("pants", "gluings", "crosscaps", "boundary", "cusps")
        name, column = next((f, c) for f, c in zip(fields, columns) if type(c) is not tuple)
        raise InvalidInput(f"plan column {name} has type {type(column).__name__}, not tuple")
    # `and` takes len only of tuples
    if not ({*map(type, plan.pants)} <= {tuple} and {*map(len, plan.pants)} <= {3}):
        i, p = next((i, p) for i, p in enumerate(plan.pants) if type(p) is not tuple or len(p) != 3)
        if type(p) is not tuple:
            raise InvalidInput(f"pants p{i} has type {type(p).__name__}, not tuple")
        raise InvalidInput(f"pants p{i} has {len(p)} cuffs, not 3")
    if not ({*map(type, plan.gluings)} <= {tuple} and {*map(len, plan.gluings)} <= {2}):
        g = next(g for g in plan.gluings if type(g) is not tuple or len(g) != 2)
        if type(g) is not tuple:
            raise InvalidInput(f"gluing {g!r} has type {type(g).__name__}, not tuple")
        raise InvalidInput(f"gluing {g!r} has {len(g)} slots, not 2")
    claimed = list(itertools.chain.from_iterable(plan.gluings))
    claimed += plan.crosscaps
    claimed += plan.boundary
    claimed += plan.cusps
    n = 3 * len(plan.pants)
    # `and` hashes only ints; the walk below always finds the first bad claim
    if not ({*map(type, claimed)} <= {int} and len(claimed) == len(set(claimed))):
        kinds = zip(("gluing", "crosscap", "boundary", "cusp"),
                    (2 * len(plan.gluings), *map(len, columns[2:])))
        hows = [how for how, k in kinds for _ in range(k)]
        seen: dict[int, str] = {}
        for slot, how in zip(claimed, hows):
            if type(slot) is not int:
                raise InvalidInput(f"{how} slot {slot!r} is not an int")
            if slot in seen:
                name = slot_names(n // 3)[slot] if 0 <= slot < n else slot
                raise InvalidInput(f"slot {name} used twice ({seen[slot]} and {how})")
            seen[slot] = how
    if not (len(claimed) == n and min(claimed, default=0) >= 0 and max(claimed, default=0) < n):
        taken = set(claimed)
        missing = [name for s, name in enumerate(slot_names(n // 3)) if s not in taken]
        extra = [s for s in claimed if not 0 <= s < n]
        raise InvalidInput(f"slot accounting broken: missing {missing}, extra {extra}")
    cuffs = list(itertools.chain.from_iterable(plan.pants))
    if not {*map(type, cuffs)} <= {float}:
        slot = next(i for i, x in enumerate(cuffs) if type(x) is not float)
        raise InvalidInput(f"cuff {slot_names(n // 3)[slot]} = {cuffs[slot]!r} is not a float")
    for slot, x in enumerate(cuffs):
        # NaN fails both tests, and only the sign tells -0.0 from 0.0
        if not (0.0 < x < math.inf or x == 0.0 and math.copysign(1.0, x) > 0.0):
            if not math.isfinite(x):
                raise InvalidInput(f"cuff {slot_names(n // 3)[slot]} = {x!r} must be finite")
            raise NegativeLength(f"cuff {slot_names(n // 3)[slot]} = {x!r} must be >= +0")
    unequal = [(i, j) for i, j in plan.gluings if cuffs[i] != cuffs[j]]
    if unequal:
        names = slot_names(n // 3)
        unequal = [f"{names[i]}={cuffs[i]!r} to {names[j]}={cuffs[j]!r}" for i, j in unequal]
        raise LengthMismatch(f"{len(unequal)} gluings join unequal cuffs: {', '.join(unequal)}")
    for how, column in (("crosscap", plan.crosscaps), ("boundary", plan.boundary)):
        for slot in column:
            if cuffs[slot] == 0.0:
                raise NegativeLength(f"{how} cuff {slot_names(n // 3)[slot]} needs positive length")
    for slot in plan.cusps:
        if cuffs[slot] != 0.0:
            raise LengthMismatch(
                f"cusp cuff {slot_names(n // 3)[slot]} = {cuffs[slot]!r} must be 0")


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
