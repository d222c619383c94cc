"""Topological calculus on surface descriptions.

Finite-type surfaces are recorded as (g, c, b, a) = handles, crosscaps,
compact boundary circles, annular ends; two noncompact-boundary surfaces
(the half plane and the doubly infinite strip) and the infinite-type
cases are separate variants.  On top of this: Euler characteristic,
doubling along the boundary, and the standard/nonstandard classifier
with its 13-surface catalog, one ordered table of description -> name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional, Union

from hypsurf.errors import (
    InvalidInput,
    NoBoundary,
    NonorientableDoubleUnsupported,
    UnderdeterminedChi,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Signature:
    """Finite-type signature; all counts are nonnegative integers."""

    g: int
    c: int
    b: int
    a: int

    def __post_init__(self):
        for name in ("g", "c", "b", "a"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InvalidInput(f"{name} must be a nonnegative integer, got {v!r}")

    def chi(self) -> int:
        return 2 - 2 * self.g - self.c - self.b - self.a


@dataclass(frozen=True)
class FiniteType:
    signature: Signature


@dataclass(frozen=True)
class HalfPlaneSurface:
    """The half plane R x [0, oo): one noncompact boundary line."""

    r: ClassVar[int] = 1  # noncompact boundary lines


@dataclass(frozen=True)
class Strip:
    """The doubly infinite strip [0, 1] x R: two noncompact boundary lines."""

    r: ClassVar[int] = 2  # noncompact boundary lines


@dataclass(frozen=True)
class InfiniteType:
    """Infinitely many boundary components and/or infinite first betti
    number; at least one flag must be set."""

    infinite_boundary: bool = False
    infinite_chi: bool = False

    def __post_init__(self):
        if not (self.infinite_boundary or self.infinite_chi):
            raise InvalidInput("InfiniteType needs at least one flag set")


SurfaceDescription = Union[FiniteType, HalfPlaneSurface, Strip, InfiniteType]


def description_to_json(d: SurfaceDescription) -> dict:
    if isinstance(d, FiniteType):
        s = d.signature
        return {"kind": "finite", "g": s.g, "c": s.c, "b": s.b, "a": s.a}
    if isinstance(d, HalfPlaneSurface):
        return {"kind": "half_plane"}
    if isinstance(d, Strip):
        return {"kind": "strip"}
    if isinstance(d, InfiniteType):
        return {
            "kind": "infinite",
            "inf_boundary": d.infinite_boundary,
            "inf_chi": d.infinite_chi,
        }
    raise InvalidInput(f"not a surface description: {d!r}")


def description_from_json(obj: dict) -> SurfaceDescription:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise InvalidInput("surface description JSON needs a 'kind' field")
    if kind == "finite":
        try:
            return FiniteType(Signature(obj["g"], obj["c"], obj["b"], obj["a"]))
        except KeyError as e:
            raise InvalidInput(f"bad finite-type description: no {e} field")
    if kind == "half_plane":
        return HalfPlaneSurface()
    if kind == "strip":
        return Strip()
    if kind == "infinite":
        flags = (obj.get("inf_boundary", False), obj.get("inf_chi", False))
        if not all(isinstance(f, bool) for f in flags):
            raise InvalidInput(f"inf_boundary and inf_chi must be JSON booleans, got {flags!r}")
        return InfiniteType(*flags)
    raise InvalidInput(f"unknown surface kind {kind!r}")


def euler_characteristic(d: SurfaceDescription):
    """chi as an integer, or -inf for infinite first betti number.

    The half plane and the strip are contractible, hence chi = 1.  An
    infinite-type description with only the boundary flag set does not
    determine chi (infinitely many noncompact boundary lines can coexist
    with any finite betti number) and is rejected.
    """
    if isinstance(d, FiniteType):
        return d.signature.chi()
    if isinstance(d, (HalfPlaneSurface, Strip)):
        return 1
    if isinstance(d, InfiniteType):
        if d.infinite_chi:
            return NEG_INF
        raise UnderdeterminedChi(
            "infinitely many boundary components alone do not determine chi"
        )
    raise InvalidInput(f"not a surface description: {d!r}")


def chi_to_json(chi):
    """JSON form of a chi value: an int, "-inf", or None (underdetermined)."""
    if chi is None:
        return None
    return "-inf" if chi == NEG_INF else int(chi)


@dataclass(frozen=True)
class DoublingReport:
    """Both readings of the doubling formula next to the direct count.

    r is the number of noncompact boundary lines.  The implemented
    formula is chi(2L) = 2 chi(L) - r; ``chi_plus_r`` records the other
    sign for comparison, and ``chi_direct`` is chi of the doubled
    description when the double is representable.
    """

    doubled: Optional[SurfaceDescription]
    r: int
    chi_minus_r: int
    chi_plus_r: int
    chi_direct: Optional[int]


def double(d: SurfaceDescription) -> SurfaceDescription:
    """Double along the boundary.

    An orientable (g, 0, b, a) with b > 0 doubles to the closed
    orientable surface of genus 2g + b - 1 with 2a annular ends; the half
    plane and the strip double to the sphere with r annular ends (the open
    disk and the open annulus).  Nonorientable signatures are not doubled
    here (the error still carries chi of the double via the doubling
    formula).
    """
    if isinstance(d, (HalfPlaneSurface, Strip)):
        return FiniteType(Signature(0, 0, 0, d.r))
    if isinstance(d, FiniteType):
        s = d.signature
        if s.b == 0:
            raise NoBoundary("doubling needs nonempty boundary")
        if s.c > 0:
            raise NonorientableDoubleUnsupported(
                "doubling of nonorientable signatures is not modeled",
                chi_double=2 * s.chi(),
            )
        doubled = Signature(2 * s.g + s.b - 1, 0, 0, 2 * s.a)
        assert doubled.chi() == 2 * s.chi()
        return FiniteType(doubled)
    if isinstance(d, InfiniteType):
        raise InvalidInput("doubling of infinite-type descriptions is not modeled")
    raise InvalidInput(f"not a surface description: {d!r}")


def doubling_report(d: SurfaceDescription) -> DoublingReport:
    """Doubling with the sign cross-check spelled out."""
    chi = euler_characteristic(d)
    if chi == NEG_INF:
        raise InvalidInput("doubling report needs finite chi")
    r = d.r if isinstance(d, (HalfPlaneSurface, Strip)) else 0
    try:
        doubled = double(d)
        chi_direct = euler_characteristic(doubled)
    except NonorientableDoubleUnsupported:
        doubled = None
        chi_direct = None
    return DoublingReport(doubled, r, 2 * chi - r, 2 * chi + r, chi_direct)


class Reason(Enum):
    NEGATIVE_CHI = "negative_chi"
    IN_THIRTEEN_LIST = "in_thirteen_list"
    INFINITE_TYPE_RULE = "infinite_type_rule"


@dataclass(frozen=True)
class StandardnessVerdict:
    standard: bool
    reason: Reason
    chi: Optional[float]  # int, -inf, or None when underdetermined
    name: Optional[str] = None

    def to_json(self) -> dict:
        out = {"standard": self.standard, "reason": self.reason.value,
               "chi": chi_to_json(self.chi)}
        if self.name is not None:
            out["name"] = self.name
        return out


#: the 13 surfaces with no standard metric, description -> name, in the
#: order `thirteen_list` gives them; the descriptions hash by value
_THIRTEEN: dict[SurfaceDescription, str] = {
    FiniteType(Signature(0, 0, 0, 1)): "open disk",
    FiniteType(Signature(0, 0, 1, 0)): "closed disk",
    FiniteType(Signature(0, 0, 0, 2)): "open annulus",
    FiniteType(Signature(0, 0, 1, 1)): "half open annulus",
    FiniteType(Signature(0, 0, 2, 0)): "closed annulus",
    FiniteType(Signature(0, 1, 0, 1)): "open Möbius band",
    FiniteType(Signature(0, 1, 1, 0)): "closed Möbius band",
    HalfPlaneSurface(): "half plane",
    Strip(): "doubly infinite strip",
    FiniteType(Signature(0, 0, 0, 0)): "sphere",
    FiniteType(Signature(0, 1, 0, 0)): "projective plane",
    FiniteType(Signature(1, 0, 0, 0)): "torus",
    FiniteType(Signature(0, 2, 0, 0)): "Klein bottle",
}


def is_standard(d: SurfaceDescription) -> StandardnessVerdict:
    """Does the surface admit a complete hyperbolic metric with geodesic
    boundary and no isometrically embedded half planes?

    Negative chi suffices; infinitely many boundary components or
    infinite chi also suffice; everything else is one of the 13 catalog
    surfaces: chi >= 0 forces 2g + c + b + a <= 2, and the catalog lists
    every finite description within that bound.  Total on all
    descriptions.
    """
    if isinstance(d, InfiniteType):
        try:
            chi = euler_characteristic(d)
        except UnderdeterminedChi:
            chi = None
        return StandardnessVerdict(True, Reason.INFINITE_TYPE_RULE, chi)
    # the type check comes first, so an unhashable argument is invalid input too
    if not isinstance(d, (FiniteType, HalfPlaneSurface, Strip)):
        raise InvalidInput(f"not a surface description: {d!r}")
    chi = euler_characteristic(d)
    if chi < 0:
        return StandardnessVerdict(True, Reason.NEGATIVE_CHI, chi)
    return StandardnessVerdict(False, Reason.IN_THIRTEEN_LIST, chi, _THIRTEEN[d])


def thirteen_list() -> list[tuple[str, SurfaceDescription]]:
    """The 13 surfaces with no standard metric, with their fixed names."""
    return [(name, d) for d, name in _THIRTEEN.items()]


def all_finite_descriptions(max_complexity: int) -> list[FiniteType]:
    """All finite-type descriptions with 2g + c + b + a <= max_complexity,
    in lexicographic order; handy for exhaustive classifier scans."""
    out = []
    for g in range(max_complexity // 2 + 1):
        for c in range(max_complexity - 2 * g + 1):
            for b in range(max_complexity - 2 * g - c + 1):
                for a in range(max_complexity - 2 * g - c - b + 1):
                    out.append(FiniteType(Signature(g, c, b, a)))
    return out
