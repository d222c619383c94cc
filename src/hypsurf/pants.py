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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

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


def _seam(xi: float, xj: float, xk: float) -> float:
    """Perpendicular distance between cuffs i and j; the third cuff sits
    opposite.  cosh d = (cosh(xi/2) cosh(xj/2) + cosh(xk/2)) / (sinh(xi/2) sinh(xj/2));
    a cusp on either adjacent cuff pushes the seam to infinity."""
    if xi == 0.0 or xj == 0.0:
        return math.inf
    num = math.cosh(0.5 * xi) * math.cosh(0.5 * xj) + math.cosh(0.5 * xk)
    den = math.sinh(0.5 * xi) * math.sinh(0.5 * xj)
    return math.acosh(num / den)


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
    def _slot_lengths(self) -> dict[str, float]:
        """Slot -> cuff length; of nodes that share an id, the first wins."""
        first = {p.node_id: p.cuff_lengths for p in reversed(self.pants)}
        return {f"{node}.c{k}": x for node, cuffs in first.items() for k, x in enumerate(cuffs)}

    def slot_length(self, slot: str) -> float:
        try:
            return self._slot_lengths[slot]
        except KeyError:
            raise InvalidInput(f"slot {slot!r} names no pants cuff") from None

    def all_slots(self) -> list[str]:
        return [f"{p.node_id}.c{i}" for p in self.pants for i in range(3)]

    def to_json(self) -> dict:
        return {
            "pants": [
                {"id": p.node_id, "cuff_lengths": list(p.cuff_lengths)} for p in self.pants
            ],
            "gluings": [
                {"from": g.slot_from, "to": g.slot_to, "length": g.length, "twist": g.twist}
                for g in self.gluings
            ],
            "crosscaps": [{"slot": c.slot, "length": c.length} for c in self.crosscap_gluings],
            "boundary": [{"slot": s.slot, "length": s.length} for s in self.boundary_slots],
            "cusps": list(self.cusp_slots),
        }


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
    """Validate slot accounting and glued-length equality.  Broken
    accounting raises InvalidInput; unequal glued lengths raise
    LengthMismatch carrying the offending gluings."""
    seen: dict[str, str] = {}

    def claim(slot: str, how: str):
        if slot in seen:
            raise InvalidInput(f"slot {slot} used twice ({seen[slot]} and {how})")
        seen[slot] = how

    for g in plan.gluings:
        claim(g.slot_from, "gluing")
        claim(g.slot_to, "gluing")
    for c in plan.crosscap_gluings:
        claim(c.slot, "crosscap")
        if not (c.length > 0.0):
            raise NegativeLength(f"crosscap cuff {c.slot} needs positive length")
    for b in plan.boundary_slots:
        claim(b.slot, "boundary")
    for s in plan.cusp_slots:
        claim(s, "cusp")
    slots = plan.all_slots()
    slot_set = set(slots)
    missing = [s for s in slots if s not in seen]
    extra = [s for s in seen if s not in slot_set]
    if missing or extra:
        raise InvalidInput(f"slot accounting broken: missing {missing}, extra {extra}")
    bad = [
        g
        for g in plan.gluings
        if abs(plan.slot_length(g.slot_from) - plan.slot_length(g.slot_to)) > 0.0
        or abs(plan.slot_length(g.slot_from) - g.length) > 0.0
    ]
    if bad:
        raise LengthMismatch(
            f"{len(bad)} gluings join unequal cuff lengths", offending=bad
        )


@dataclass(frozen=True)
class MetricSummary:
    total_area: float
    pants_count: int
    cuff_lengths: tuple[tuple[str, float], ...]

    def to_json(self) -> dict:
        return {
            "total_area": self.total_area,
            "pants_count": self.pants_count,
            "cuff_lengths": {slot: length for slot, length in self.cuff_lengths},
        }


def realize(plan: PantsDecompositionPlan) -> MetricSummary:
    """Fit the pants metrics together: build each pants' hexagon geometry
    and total the area (2*pi per pants).  Each distinct cuff triple is
    built once.  The plan was validated when it was constructed."""
    for cuffs in dict.fromkeys(p.cuff_lengths for p in plan.pants):
        build_pants(CuffLengths(*cuffs))
    cuffs = tuple((slot, plan.slot_length(slot)) for slot in plan.all_slots())
    return MetricSummary(
        total_area=PANTS_AREA * len(plan.pants),
        pants_count=len(plan.pants),
        cuff_lengths=cuffs,
    )
