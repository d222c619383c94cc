"""Computational hyperbolic geometry on the open unit disk.

Modules cover the isometry algebra of the Poincare disk (`disk`),
finitely generated groups of disk isometries and their limit sets
(`groups`), the surface-signature calculus with the 13-surface
classifier (`signature`), hyperbolic metrics from generalized pairs of
pants (`pants`), sampled boundary circle maps of free-group
automorphisms (`boundary`), and a CLI (`cli`).
"""

from hypsurf.disk import (
    DiskPoint,
    Geodesic,
    IdealPoint,
    MobiusIsometry,
    translation_along,
)
from hypsurf.words import GroupWord
from hypsurf.groups import (
    EndpointSample,
    GroupRep,
    SampleMode,
    attracting_angle,
    cusped_torus_group,
    evaluate,
    gap_profile,
    limit_sample,
    max_angular_gap,
    octagon_group,
    schottky_rank2,
)
from hypsurf.signature import (
    FiniteType,
    HalfPlaneSurface,
    InfiniteType,
    Signature,
    StandardnessVerdict,
    Strip,
    double,
    doubling_report,
    euler_characteristic,
    is_standard,
    thirteen_list,
)
from hypsurf.pants import (
    CuffLengths,
    PantsDecompositionPlan,
    PantsGeometry,
    build_pants,
    plan_decomposition,
    realize,
)
from hypsurf.boundary import (
    CircleMapSample,
    FreeAutomorphism,
    certify_automorphism,
    induced_boundary_sample,
    is_boundary_identity,
    order_check,
)

__version__ = "0.1.0"
