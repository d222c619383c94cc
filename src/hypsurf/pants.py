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

from hypsurf.errors import (
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
#: internal gluing curves default to this length
DEFAULT_GLUING_LENGTH = 1.0


@dataclass(frozen=True)
class CuffLengths:
    """Boundary lengths of one pants; 0 encodes a cusp."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not (v >= 0.0) or not math.isfinite(v):
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
    area: float = PANTS_AREA
    cusp_horocycle: float = CUSP_HOROCYCLE_LENGTH

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
    twist: float = 0.0


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
    cusp, exactly once."""

    pants: tuple[PantsNode, ...]
    gluings: tuple[Gluing, ...]
    crosscap_gluings: tuple[CrosscapGluing, ...]
    boundary_slots: tuple[BoundarySlot, ...]
    cusp_slots: tuple[str, ...]

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

    @cached_property
    def _checked(self) -> bool:
        _check_plan(self)
        return True

    def check(self) -> None:
        """Run `_check_plan` once per plan object.  The plan is frozen and
        holds only tuples, so a check that passed stays passed; a copy made
        by `dataclasses.replace` is a new object and is checked again."""
        self._checked  # the first read runs the check and caches True

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
    gluing_length: float = DEFAULT_GLUING_LENGTH,
) -> PantsDecompositionPlan:
    """Generalized pants decomposition of the finite-type surface s.

    Cutting g handle curves and c crosscap curves leaves a sphere with
    2g + c + b holes and a punctures, which a chain of -chi(s) pants
    fills; handle holes are reglued in pairs, crosscap holes are
    self-identified, boundary holes keep the prescribed lengths, and
    punctures become cusps.  Internal curves default to length 1, twist 0.
    """
    chi = s.chi()
    if chi >= 0:
        raise NotHyperbolizable(f"chi = {chi} >= 0 admits no hyperbolic metric")
    lengths = tuple(float(x) for x in boundary_lengths)
    if len(lengths) != s.b:
        raise LengthCountMismatch(
            f"{s.b} boundary circles but {len(lengths)} lengths given"
        )
    for x in lengths:
        if not (x > 0.0) or not math.isfinite(x):
            raise NegativeLength(f"boundary length {x!r} must be positive")
    if not (gluing_length > 0.0):
        raise NegativeLength("gluing length must be positive")

    # hole roles, in deterministic order: handle pairs, crosscaps,
    # boundary circles, cusps
    holes: list[tuple[str, float]] = []
    for _ in range(2 * s.g):
        holes.append(("handle", gluing_length))
    for _ in range(s.c):
        holes.append(("crosscap", gluing_length))
    for x in lengths:
        holes.append(("boundary", x))
    for _ in range(s.a):
        holes.append(("cusp", 0.0))
    m = len(holes)
    count = m - 2  # = -chi

    # chain layout: pants i owns hole slots, consecutive pants share a
    # curve; slot_role fills in (node, cuff) order
    slot_role: dict[str, tuple[str, float]] = {}
    chain: list[tuple[str, str]] = []
    unplaced = iter(holes)
    node_cuffs: list[list[float]] = [[0.0, 0.0, 0.0] for _ in range(count)]
    for i in range(count):
        slots = [f"p{i}.c{k}" for k in range(3)]
        if count == 1:
            owned = [0, 1, 2]
        elif i == 0:
            owned = [0, 1]
        elif i == count - 1:
            owned = [1, 2]
        else:
            owned = [1]
        if i < count - 1:
            chain.append((f"p{i}.c2", f"p{i+1}.c0"))
            node_cuffs[i][2] = gluing_length
            node_cuffs[i + 1][0] = gluing_length
        for k in owned:
            role, length = next(unplaced)
            slot_role[slots[k]] = (role, length)
            node_cuffs[i][k] = length

    pants = tuple(
        PantsNode(f"p{i}", tuple(node_cuffs[i])) for i in range(count)
    )

    gluings = [Gluing(l, r, gluing_length, 0.0) for l, r in chain]
    crosscaps: list[CrosscapGluing] = []
    boundary: list[BoundarySlot] = []
    cusps: list[str] = []
    handle_buffer: list[str] = []
    for slot, (role, length) in slot_role.items():
        if role == "handle":
            handle_buffer.append(slot)
            if len(handle_buffer) == 2:
                gluings.append(Gluing(handle_buffer[0], handle_buffer[1], length, 0.0))
                handle_buffer.clear()
        elif role == "crosscap":
            crosscaps.append(CrosscapGluing(slot, length))
        elif role == "boundary":
            boundary.append(BoundarySlot(slot, length))
        else:
            cusps.append(slot)
    assert not handle_buffer

    plan = PantsDecompositionPlan(
        pants, tuple(gluings), tuple(crosscaps), tuple(boundary), tuple(cusps)
    )
    plan.check()
    return plan


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
    """Fit the pants metrics together: validates the plan, builds each
    pants' hexagon geometry, and totals the area (2*pi per pants).  Each
    distinct cuff triple is built once."""
    plan.check()
    for cuffs in dict.fromkeys(p.cuff_lengths for p in plan.pants):
        build_pants(CuffLengths(*cuffs))
    cuffs = tuple((slot, plan.slot_length(slot)) for slot in plan.all_slots())
    return MetricSummary(
        total_area=PANTS_AREA * len(plan.pants),
        pants_count=len(plan.pants),
        cuff_lengths=cuffs,
    )
