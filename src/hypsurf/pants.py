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
from functools import cached_property
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
            object.__setattr__(self, name, v)

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


@dataclass(frozen=True)
class PantsNode:
    node_id: str
    cuff_lengths: tuple[float, float, float]


@dataclass(frozen=True)
class Gluing:
    slot_from: str
    slot_to: str
    length: float
    twist: ClassVar[float] = 0.0


@dataclass(frozen=True)
class CrosscapGluing:
    slot: str
    length: float


@dataclass(frozen=True)
class BoundarySlot:
    slot: str
    length: float


@dataclass(frozen=True)
class PantsDecompositionPlan:
    """Pants nodes plus a complete accounting of their 3P cuff slots:
    every slot is glued, crosscap-identified, an external boundary, or a
    cusp, exactly once.  Construction runs `_check_plan`, so every plan
    object has passed it."""

    pants: tuple[PantsNode, ...]
    gluings: tuple[Gluing, ...]
    crosscap_gluings: tuple[CrosscapGluing, ...]
    boundary_slots: tuple[BoundarySlot, ...]
    cusp_slots: tuple[str, ...]

    def __post_init__(self):
        # frozen and made of tuples, a plan that passed stays valid;
        # `dataclasses.replace` builds a new object, checked in turn
        _check_plan(self)

    @cached_property
    def slot_table(self) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """Every cuff slot in (node, cuff) order and its cuff length: the
        one length table, read from the pants tuples once."""
        slots = tuple([f"{p.node_id}{k}" for p in self.pants for k in (".c0", ".c1", ".c2")])
        lengths = tuple([x for p in self.pants for x in p.cuff_lengths])
        return slots, lengths


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

    count = -chi
    slots = ["p0.c0", *(f"p{i}.c1" for i in range(count)), f"p{count - 1}.c2"]
    h, c = 2 * s.g, 2 * s.g + s.c  # ends of the handle and crosscap runs
    hole_lengths = (DEFAULT_GLUING_LENGTH,) * c + lengths + (0.0,) * s.a
    chain = (DEFAULT_GLUING_LENGTH,) * (count - 1)
    cuffs = zip(hole_lengths[:1] + chain, hole_lengths[1:-1], chain + hole_lengths[-1:])
    return PantsDecompositionPlan(
        pants=tuple(PantsNode(f"p{i}", triple) for i, triple in enumerate(cuffs)),
        gluings=tuple(
            Gluing(f"p{i}.c2", f"p{i + 1}.c0", DEFAULT_GLUING_LENGTH) for i in range(count - 1)
        ) + tuple(
            Gluing(x, y, DEFAULT_GLUING_LENGTH) for x, y in zip(slots[0:h:2], slots[1:h:2])
        ),
        crosscap_gluings=tuple(CrosscapGluing(x, DEFAULT_GLUING_LENGTH) for x in slots[h:c]),
        boundary_slots=tuple(map(BoundarySlot, slots[c:c + s.b], lengths)),
        cusp_slots=tuple(slots[c + s.b:]),
    )


def _check_plan(plan: PantsDecompositionPlan) -> None:
    """Validate slot accounting, then lengths.

    Every pants has three cuffs and an id of its own, and the claimed
    slots (two per gluing, one per crosscap, boundary slot and cusp) are
    the cuff slots, each claimed once; otherwise InvalidInput, with the
    slot used twice or the missing and extra slots named.  A crosscap
    needs a positive length (NegativeLength).  A gluing joins two cuffs
    of its own length, a crosscap or boundary slot has its cuff's length
    and a cusp's cuff is 0; otherwise LengthMismatch carrying the
    offending entries.  NaN equals nothing, so it fails every length test.
    """
    slots, lengths = plan.slot_table
    length_of = dict(zip(slots, lengths))
    claimed = [s for g in plan.gluings for s in (g.slot_from, g.slot_to)]
    claimed += [c.slot for c in plan.crosscap_gluings]
    claimed += [b.slot for b in plan.boundary_slots]
    claimed += plan.cusp_slots
    # three cuffs a pants, as many distinct slots as claims, and the
    # claims are those slots
    if not (all(len(p.cuff_lengths) == 3 for p in plan.pants)
            and len(length_of) == len(lengths) == len(claimed)
            and length_of.keys() == set(claimed)):
        _raise_accounting(plan, slots)
    for c in plan.crosscap_gluings:
        if not (c.length > 0.0):
            raise NegativeLength(f"crosscap cuff {c.slot} needs positive length")
    bad = [g for g in plan.gluings
           if not length_of[g.slot_from] == length_of[g.slot_to] == g.length]
    if bad:
        raise LengthMismatch(
            f"{len(bad)} gluings join unequal cuff lengths", offending=bad
        )
    off = [c for c in plan.crosscap_gluings if not length_of[c.slot] == c.length]
    off += [b for b in plan.boundary_slots if not length_of[b.slot] == b.length]
    off += [s for s in plan.cusp_slots if not length_of[s] == 0.0]
    if off:
        raise LengthMismatch(
            f"{len(off)} crosscap, boundary or cusp slots differ from their cuffs",
            offending=off,
        )


def _raise_accounting(plan: PantsDecompositionPlan, slots: tuple[str, ...]) -> NoReturn:
    """Name what breaks a plan's slot accounting: claims in order (a
    crosscap's length checked as it is claimed), then missing and extra
    slots, then pants ids used twice and pants without three cuffs."""
    seen: dict[str, str] = {}
    claims = itertools.chain(
        ((s, "gluing", None) for g in plan.gluings for s in (g.slot_from, g.slot_to)),
        ((c.slot, "crosscap", c) for c in plan.crosscap_gluings),
        ((b.slot, "boundary", None) for b in plan.boundary_slots),
        ((s, "cusp", None) for s in plan.cusp_slots),
    )
    for slot, how, crosscap in claims:
        if slot in seen:
            raise InvalidInput(f"slot {slot} used twice ({seen[slot]} and {how})")
        seen[slot] = how
        if crosscap is not None and not (crosscap.length > 0.0):
            raise NegativeLength(f"crosscap cuff {slot} needs positive length")
    slot_set = set(slots)
    missing = [s for s in slots if s not in seen]
    extra = [s for s in seen if s not in slot_set]
    if missing or extra:
        raise InvalidInput(f"slot accounting broken: missing {missing}, extra {extra}")
    ids: set[str] = set()
    for p in plan.pants:
        if p.node_id in ids:
            raise InvalidInput(f"pants id {p.node_id} used twice")
        ids.add(p.node_id)
        if len(p.cuff_lengths) != 3:
            raise InvalidInput(f"pants {p.node_id} has {len(p.cuff_lengths)} cuffs, not 3")


@dataclass(frozen=True)
class MetricSummary:
    total_area: float
    pants_count: int


def realize(plan: PantsDecompositionPlan) -> MetricSummary:
    """Fit the pants metrics together and total the area (2*pi per
    pants).  A pants exists for every finite, nonnegative cuff triple, so
    each distinct triple is checked as `CuffLengths` and no seam is
    built: a plan's output carries none.  The plan's accounting was
    validated when it was constructed; its lengths are `plan.slot_table`."""
    for cuffs in dict.fromkeys(p.cuff_lengths for p in plan.pants):
        CuffLengths(*cuffs)
    return MetricSummary(total_area=PANTS_AREA * len(plan.pants), pants_count=len(plan.pants))
