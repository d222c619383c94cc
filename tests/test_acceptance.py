"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline;
every tolerance is pinned here, not configured elsewhere.
"""

import functools
import math
import random
import time

import numpy as np
import pytest

from hypsurf.boundary import (
    FreeAutomorphism,
    induced_boundary_sample,
    is_boundary_identity,
    order_check,
)
from hypsurf.disk import DiskPoint
from hypsurf.errors import NonorientableDoubleUnsupported
from hypsurf.groups import (
    SampleMode,
    cusped_torus_group,
    evaluate,
    gap_profile,
    limit_sample,
    max_angular_gap,
    octagon_group,
    schottky_rank2,
)
from hypsurf.pants import CuffLengths, build_pants, plan_decomposition, realize
from hypsurf.signature import (
    FiniteType,
    HalfPlaneSurface,
    InfiniteType,
    Signature,
    Strip,
    double,
    doubling_report,
    euler_characteristic,
    is_standard,
    thirteen_list,
)
from hypsurf.jsontext import dump_json
from hypsurf.words import GroupWord, word_count

from oracles import (
    IdealPoint,
    all_finite_descriptions,
    apply,
    hexagon_identity_residual,
    random_nielsen_automorphism,
)

WORD_CAP = 5_000_000


def criterion(number, name, limit_seconds=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            if limit_seconds is not None and elapsed >= limit_seconds:
                print(f"ACCEPTANCE {number} {name}: FAIL (runtime {elapsed:.1f}s)")
                raise AssertionError(
                    f"criterion {number} exceeded its {limit_seconds}s runtime budget"
                )
            print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")

        return wrapper

    return deco


def _scan_descriptions():
    out = list(all_finite_descriptions(4))
    out += [
        HalfPlaneSurface(),
        Strip(),
        InfiniteType(infinite_boundary=True),
        InfiniteType(infinite_chi=True),
        InfiniteType(infinite_boundary=True, infinite_chi=True),
    ]
    return out


@criterion(1, "thirteen-surface reproduction", limit_seconds=1.0)
def test_criterion_1_thirteen_surfaces():
    catalog_names = [name for name, _ in thirteen_list()]
    assert len(catalog_names) == 13
    nonstandard = [d for d in _scan_descriptions() if not is_standard(d).standard]
    names = {is_standard(d).name for d in nonstandard}
    assert names == set(catalog_names)
    # the finite nonstandard descriptions are exactly the catalog's 11
    # finite entries, once each
    finite = {d for d in nonstandard if isinstance(d, FiniteType)}
    assert finite == {d for _, d in thirteen_list() if isinstance(d, FiniteType)}
    assert len(finite) == 11
    assert len(nonstandard) == 13  # 11 finite + half plane + strip


@criterion(2, "chi table")
def test_criterion_2_chi_table():
    table = [
        (FiniteType(Signature(0, 0, 0, 0)), 2),   # sphere
        (FiniteType(Signature(0, 1, 0, 0)), 1),   # projective plane
        (FiniteType(Signature(1, 0, 0, 0)), 0),   # torus
        (FiniteType(Signature(0, 2, 0, 0)), 0),   # Klein bottle
        (FiniteType(Signature(0, 0, 1, 0)), 1),   # closed disk
        (FiniteType(Signature(0, 0, 2, 0)), 0),   # closed annulus
        (FiniteType(Signature(0, 0, 0, 2)), 0),   # open annulus
        (FiniteType(Signature(0, 0, 3, 0)), -1),  # pants
        (FiniteType(Signature(2, 0, 0, 0)), -2),  # genus-2 closed
    ]
    for d, expected in table:
        assert euler_characteristic(d) == expected


@criterion(3, "doubling chi oracle")
def test_criterion_3_doubling_oracle():
    cases = [
        HalfPlaneSurface(),          # must give the open disk, chi 1
        Strip(),                     # must give the open annulus, chi 0
        FiniteType(Signature(0, 0, 1, 0)),
        FiniteType(Signature(0, 0, 1, 1)),
        FiniteType(Signature(0, 0, 2, 0)),
        FiniteType(Signature(0, 0, 3, 0)),
        FiniteType(Signature(1, 0, 1, 0)),
        FiniteType(Signature(1, 0, 2, 1)),
        FiniteType(Signature(2, 0, 1, 0)),
        FiniteType(Signature(0, 0, 2, 3)),
    ]
    assert len(cases) == 10
    for d in cases:
        rep = doubling_report(d)
        assert rep.chi_direct == rep.chi_minus_r
    assert double(Strip()) == FiniteType(Signature(0, 0, 0, 2))
    assert double(HalfPlaneSurface()) == FiniteType(Signature(0, 0, 0, 1))


@criterion(4, "doubling preserves standardness")
def test_criterion_4_doubling_standardness():
    checked = 0
    for d in _scan_descriptions():
        if isinstance(d, (HalfPlaneSurface, Strip)):
            assert is_standard(d).standard == is_standard(double(d)).standard
            checked += 1
        elif isinstance(d, FiniteType) and d.signature.b > 0:
            if d.signature.c > 0:
                with pytest.raises(NonorientableDoubleUnsupported):
                    double(d)
                continue
            assert is_standard(d).standard == is_standard(double(d)).standard
            checked += 1
    assert checked == 15  # 13 orientable finite-type with boundary + half plane + strip


@criterion(5, "pants trigonometry", limit_seconds=5.0)
def test_criterion_5_pants():
    rng = random.Random(5_2026)
    for _ in range(100):
        x = CuffLengths(*(rng.uniform(0.1, 5.0) for _ in range(3)))
        assert hexagon_identity_residual(x, build_pants(x)) < 1e-9
    ideal = build_pants(CuffLengths(0.0, 0.0, 0.0))
    assert ideal.area == 2.0 * math.pi
    for _ in range(50):
        while True:
            s = Signature(rng.randrange(3), rng.randrange(3),
                          rng.randrange(4), rng.randrange(4))
            if -10 <= s.chi() <= -1:
                break
        plan = plan_decomposition(s, tuple(1.0 + 0.25 * i for i in range(s.b)))
        assert len(plan.pants) == -s.chi()
        total = realize(plan).total_area
        assert abs(total - (-2.0 * math.pi * s.chi())) < 1e-9


def _octagon_density_rows():
    rep = octagon_group()
    feasible = max(n for n in range(1, 12) if word_count(4, n) <= WORD_CAP)
    rows = []
    for n in (2, 3, 4, 5, feasible):
        s = limit_sample(rep, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS)
        rows.append({"n": n, "sample_size": len(s), "max_gap": max_angular_gap(s)})
    return feasible, rows


def _criterion6_artifacts():
    feasible, rows = _octagon_density_rows()
    stats = dump_json({"group": "octagon", "mode": "axes",
                       "word_cap": WORD_CAP, "max_feasible_n": feasible,
                       "rows": rows})
    sample4 = limit_sample(octagon_group(), DiskPoint(0), 4, SampleMode.AXIS_ENDPOINTS)
    return {
        "density_stats.json": stats.encode(),
        "octagon_axes_n4.csv": "".join(sample4.to_csv_rows()).encode(),
    }


@criterion(6, "limit-set density", limit_seconds=60.0)
def test_criterion_6_density():
    feasible, rows = _octagon_density_rows()
    assert feasible == 7
    gaps = {r["n"]: r["max_gap"] for r in rows}
    assert gaps[2] > gaps[3] > gaps[4] > gaps[5]
    assert gaps[feasible] < 0.2


def _criterion7_artifacts():
    rep = schottky_rank2(4.0)
    out = {}
    rows = []
    for n in (4, 6):
        s = limit_sample(rep, DiskPoint(0), n, SampleMode.AXIS_ENDPOINTS)
        rows.append({"n": n, "sample_size": len(s), "top_gap": gap_profile(s)[0]})
        if n == 6:
            out["schottky_axes_n6.csv"] = "".join(s.to_csv_rows()).encode()
    out["cantor_stats.json"] = dump_json(
        {"group": "schottky", "separation": 4.0, "rows": rows,
         "top_gap_change": abs(rows[0]["top_gap"] - rows[1]["top_gap"])}
    ).encode()
    return out


@criterion(7, "cantor gap persistence", limit_seconds=30.0)
def test_criterion_7_cantor():
    rep = schottky_rank2(4.0)
    s4 = limit_sample(rep, DiskPoint(0), 4, SampleMode.AXIS_ENDPOINTS)
    s6 = limit_sample(rep, DiskPoint(0), 6, SampleMode.AXIS_ENDPOINTS)
    assert len(s6) >= 3 * len(s4)
    assert abs(gap_profile(s4)[0] - gap_profile(s6)[0]) < 1e-3


def _boundary_runs():
    octagon = octagon_group()
    torus = cusped_torus_group()
    # (a) inner automorphism against the Mobius action
    g = GroupWord.from_string("A")
    inner = FreeAutomorphism.inner(4, g)
    sample = induced_boundary_sample(octagon, inner, 4)
    ga = evaluate(octagon, g)
    predicted = np.array([apply(ga, IdealPoint(float(t))).theta for t in sample.theta_in])
    inner_dev = float(np.abs(np.angle(np.exp(1j * (predicted - sample.theta_out)))).max())
    # (b) identity automorphism
    ident = is_boundary_identity(
        torus, induced_boundary_sample(torus, FreeAutomorphism.identity(2), 4)
    )
    # (c) the twist
    twist = is_boundary_identity(
        torus, induced_boundary_sample(torus, FreeAutomorphism.from_spec("A=AB,B=B"), 5),
        m=3, tol=0.01,
    )
    # (d) 50 random orientation-preserving Nielsen compositions
    sc = schottky_rank2(2.0)
    rng = random.Random(20260811)
    orientations = []
    for _ in range(50):
        phi = random_nielsen_automorphism(2, rng.randrange(6), rng,
                                          max_total_image_length=8)
        orientations.append(order_check(induced_boundary_sample(sc, phi, 3)))
    return sample, inner_dev, ident, twist, orientations


def _criterion8_artifacts():
    sample, inner_dev, ident, twist, orientations = _boundary_runs()
    verdicts = dump_json(
        {
            "inner_pointwise_deviation": inner_dev,
            "inner_sample_size": len(sample),
            "identity": ident.to_json(),
            "twist": twist.to_json(),
            "random_orientations": orientations,
        }
    )
    return {
        "octagon_inner_n4.csv": "".join(sample.to_csv_rows()).encode(),
        "boundary_verdicts.json": verdicts.encode(),
    }


@criterion(8, "boundary action", limit_seconds=120.0)
def test_criterion_8_boundary():
    sample, inner_dev, ident, twist, orientations = _boundary_runs()
    assert len(sample) >= 100
    assert inner_dev < 1e-6
    assert ident.identity and ident.residual < 1e-10
    assert not twist.identity and twist.residual > 0.05
    assert orientations == ["preserving"] * 50


@criterion(9, "determinism of sampled artifacts")
def test_criterion_9_determinism(tmp_path):
    for build in (_criterion6_artifacts, _criterion7_artifacts, _criterion8_artifacts):
        first = build()
        second = build()
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
            (tmp_path / name).write_bytes(first[name])
