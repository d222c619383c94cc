"""Output checks made apart from the program.

Group matrices are rebuilt here from their closed forms, word products
and fixed points are recomputed in extended precision (mpmath), the
automorphism is applied by this module's own substitution and free
reduction, and the signature rules are restated from the paper.  No
check compares against a saved copy of earlier output.  Every check
raises `CheckFailed` on the first violation.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import numpy as np
from mpmath import mp, mpc, mpf

from workloads import (
    Op,
    OpResult,
    Workload,
    chi_is_defined,
    classify_outcome,
)

TWO_PI = 2.0 * math.pi
#: a spot-checked angle must sit this close to the recomputed fixed point
#: (the program's own angular resolution, TOL_ANGLE)
SPOT_TOL = 1e-9
#: rows spot-checked in extended precision per artifact
SPOT_ROWS = 200
#: top-gap persistence tolerance, as in the Cantor-gap acceptance criterion
GAP_PERSIST_TOL = 1e-3
#: verdict thresholds
IDENTITY_RESIDUAL_MAX = 1e-10
TWIST_RESIDUAL_MIN = 0.05
AREA_TOL = 1e-9
MP_DPS = 50


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def spot_indices(seed: int, artifact: str, count: int, k: int = SPOT_ROWS) -> list[int]:
    """Seeded choice of the rows to recompute; the same seed and artifact
    name always pick the same rows."""
    rng = random.Random(f"{seed}:{artifact}")
    return sorted(rng.sample(range(count), min(k, count)))


# ---------------------------------------------------------------------------
# words


def letters_of(rank: int) -> str:
    return "".join(chr(ord("A") + i) + chr(ord("a") + i) for i in range(rank))


def inverse_word(w: str) -> str:
    return w[::-1].swapcase()


def free_reduce(w: str) -> str:
    out: list[str] = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def check_words(words: list[str], rank: int, n: int, cyclic: bool) -> None:
    """Every word is a nonempty, freely reduced word of length <= n over
    the rank's letters; with ``cyclic``, also cyclically reduced."""
    require(len(words) > 0, "no words")
    require(min(map(len, words)) >= 1, "empty word in a sample")
    require(max(map(len, words)) <= n, f"word longer than n = {n}")
    alphabet = letters_of(rank)
    blob = "\n".join(words)
    stray = set(blob) - set(alphabet + "\n")
    require(not stray, f"letters {sorted(stray)} outside {alphabet}")
    pair = re.search("|".join(ch + ch.swapcase() for ch in alphabet), blob)
    require(pair is None, f"word with {pair and pair.group()!r} is not freely reduced")
    if cyclic:
        w = next((w for w in words if w[0] == w[-1].swapcase()), None)
        require(w is None, f"word {w!r} is not cyclically reduced")


def parse_automorphism(spec: str, rank: int) -> dict[str, str]:
    """Images of the generators for "A=AB,B=B"; unnamed ones are fixed."""
    images = {chr(ord("A") + i): chr(ord("A") + i) for i in range(rank)}
    for part in spec.split(","):
        lhs, rhs = part.split("=")
        images[lhs.strip()] = rhs.strip()
    return images


def substitute(images: dict[str, str], w: str) -> str:
    out = []
    for ch in w:
        out.append(images[ch] if ch.isupper() else inverse_word(images[ch.upper()]))
    return free_reduce("".join(out))


# ---------------------------------------------------------------------------
# groups in extended precision


def group_generators(group: str, separation) -> dict[str, tuple]:
    """Letter -> SU(1,1) matrix (p, q, r, s) acting by z -> (pz+q)/(rz+s).

    octagon: translations along the diagonals at angles k*pi/4 with
    a = 1 + sqrt 2, |b| = sqrt(2 + 2 sqrt 2); schottky: translations by
    the separation along the real and imaginary diameters; cusped-torus:
    a = sqrt 2 with b = 1 and b = i.
    """
    mp.dps = MP_DPS
    i = mpc(0, 1)
    if group == "octagon":
        a = 1 + mp.sqrt(2)
        bmod = mp.sqrt(2 + 2 * mp.sqrt(2))
        gens = [(mpc(a), bmod * mp.exp(i * k * mp.pi / 4)) for k in range(4)]
    elif group == "schottky":
        half = mpf(separation) / 2
        gens = [(mpc(mp.cosh(half)), mpc(mp.sinh(half))),
                (mpc(mp.cosh(half)), i * mp.sinh(half))]
    elif group == "cusped-torus":
        gens = [(mpc(mp.sqrt(2)), mpc(1)), (mpc(mp.sqrt(2)), i)]
    else:
        raise ValueError(f"unknown group {group!r}")
    out = {}
    for k, (a, b) in enumerate(gens):
        up = chr(ord("A") + k)
        out[up] = (a, b, mp.conj(b), mp.conj(a))
        out[up.lower()] = (mp.conj(a), -b, -mp.conj(b), a)
    return out


def group_rank(group: str) -> int:
    return 4 if group == "octagon" else 2


def word_matrix(gens: dict[str, tuple], w: str) -> tuple:
    p, q, r, s = mpc(1), mpc(0), mpc(0), mpc(1)
    for ch in w:
        P, Q, R, S = gens[ch]
        p, q, r, s = p * P + q * R, p * Q + q * S, r * P + s * R, r * Q + s * S
    return p, q, r, s


def fixed_points(m: tuple) -> list:
    """Roots of r z^2 + (s - p) z - q = 0, attracting one first: for a
    unit-determinant matrix the derivative there is 1/(rz+s)^2."""
    p, q, r, s = m
    root = mp.sqrt((s - p) ** 2 + 4 * r * q)
    zs = [((p - s) + root) / (2 * r), ((p - s) - root) / (2 * r)]
    zs.sort(key=lambda z: -abs(r * z + s))
    return zs


def angle_of(z) -> float:
    return float(mp.arg(z) % (2 * mp.pi))


def circular_distance(t1: float, t2: float) -> float:
    d = abs(t1 - t2) % TWO_PI
    return min(d, TWO_PI - d)


# ---------------------------------------------------------------------------
# endpoint samples


def parse_endpoint_csv(text: str) -> tuple[list[float], list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "theta,word", "endpoint CSV header missing")
    angles, words = [], []
    for line in lines[1:]:
        t, w = line.split(",")
        angles.append(float(t))
        words.append(w)
    return angles, words


def parse_endpoint_json(text: str) -> tuple[list[float], list[str]]:
    obj = json.loads(text)
    require(len(obj["angles"]) == len(obj["words"]), "angles and words differ in length")
    return [float(t) for t in obj["angles"]], list(obj["words"])


def check_increasing(angles) -> None:
    arr = np.asarray(angles, dtype=float)
    require(len(arr) > 0, "empty sample")
    require(bool(np.all(arr >= 0.0)) and bool(np.all(arr < TWO_PI)),
            "angle outside [0, 2 pi)")
    if len(arr) > 1:
        bad = np.nonzero(np.diff(arr) <= 0.0)[0]
        require(len(bad) == 0, f"angles not strictly increasing at row {bad[:1].tolist()}")


def gaps(angles) -> np.ndarray:
    arr = np.asarray(angles, dtype=float)
    return np.append(np.diff(arr), arr[0] + TWO_PI - arr[-1])


def check_endpoints(angles, words, spec: dict, spot: list[int]) -> int:
    """Sorted, reduced, and each spot row on a fixed point (axes) or an
    orbit point beyond the radial cutoff (orbit).  Returns the row count."""
    require(len(angles) == len(words), "angle and word columns differ in length")
    check_increasing(angles)
    axes = spec["mode"] == "axes"
    check_words(words, group_rank(spec["group"]), spec["n"], cyclic=axes)
    gens = group_generators(spec["group"], spec["separation"])
    for i in spot:
        m = word_matrix(gens, words[i])
        if axes:
            err = min(circular_distance(angles[i], angle_of(z)) for z in fixed_points(m))
        else:
            z = m[1] / m[3]  # image of the origin
            require(abs(z) > 1 - mpf(spec["delta"]),
                    f"row {i} ({words[i]}) lies inside the radial cutoff")
            err = circular_distance(angles[i], angle_of(z))
        require(err <= SPOT_TOL,
                f"row {i} ({words[i]}): angle off by {err:.3g} from the recomputed point")
    if "max_gap_below" in spec:
        g = float(gaps(angles).max())
        require(g < spec["max_gap_below"], f"max gap {g} not below {spec['max_gap_below']}")
    if "top_gap_persists_from" in spec:
        ref = reference_axis_angles(spec["group"], spec["separation"],
                                    spec["top_gap_persists_from"])
        top_ref = float(gaps(ref).max())
        top = float(gaps(angles).max())
        require(abs(top - top_ref) < GAP_PERSIST_TOL,
                f"top gap {top} does not persist from n = {spec['top_gap_persists_from']} "
                f"({top_ref})")
    return len(angles)


def reference_axis_angles(group: str, separation, n: int, tol: float = 1e-9) -> np.ndarray:
    """This module's own axis-endpoint sample: both fixed points of every
    cyclically reduced word of length <= n, in double precision, merged
    at tol.  Used as the smaller-n side of the gap-persistence check."""
    gens = group_generators(group, separation)
    letters = list(gens)
    mats = {ch: np.array([[complex(x) for x in gens[ch][:2]],
                          [complex(x) for x in gens[ch][2:]]]) for ch in letters}
    level = [(ch, mats[ch]) for ch in letters]
    out = []
    for length in range(1, n + 1):
        if length > 1:
            level = [(w + ch, m @ mats[ch]) for w, m in level for ch in letters
                     if ch != w[-1].swapcase()]
        for w, m in level:
            if len(w) > 1 and w[0] == w[-1].swapcase():
                continue
            (p, q), (r, s) = m
            if abs((p + s).real) <= 2.0 + 1e-9:
                continue
            root = np.sqrt((s - p) ** 2 + 4 * r * q)
            for z in (((p - s) + root) / (2 * r), ((p - s) - root) / (2 * r)):
                out.append(math.atan2(z.imag, z.real) % TWO_PI)
    arr = np.sort(np.array(out))
    keep = np.append(True, np.diff(arr) > tol)
    arr = arr[keep]
    if len(arr) > 1 and arr[0] + TWO_PI - arr[-1] <= tol:
        arr = arr[:-1]
    return arr


# ---------------------------------------------------------------------------
# circle maps and verdicts


def parse_circle_map_csv(text: str) -> tuple[list[float], list[float], list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == "theta_in,theta_out,word",
            "circle-map CSV header missing")
    tin, tout, words = [], [], []
    for line in lines[1:]:
        a, b, w = line.split(",")
        tin.append(float(a))
        tout.append(float(b))
        words.append(w)
    return tin, tout, words


def check_order_preserving(tout) -> None:
    """The outputs, read in input order, go once round the circle
    counterclockwise: exactly one cyclic descent."""
    m = len(tout)
    require(m >= 3, "too few pairs to test the cyclic order")
    descents = sum(1 for i in range(m) if tout[(i + 1) % m] < tout[i])
    require(descents == 1, f"map is not order-preserving ({descents} cyclic descents)")


def check_circle_map(tin, tout, words, spec: dict, spot: list[int]) -> int:
    """Sorted inputs, reduced class words, order-preserving outputs, and
    each spot row on the attracting fixed points of w and phi(w)."""
    require(len(tin) == len(tout) == len(words), "circle-map columns differ in length")
    check_increasing(tin)
    require(all(0.0 <= t < TWO_PI for t in tout), "theta_out outside [0, 2 pi)")
    rank = group_rank(spec["group"])
    check_words(words, rank, spec["n"], cyclic=True)
    check_order_preserving(tout)
    gens = group_generators(spec["group"], spec["separation"])
    images = parse_automorphism(spec["aut"], rank)
    for i in spot:
        w = words[i]
        want_in = angle_of(fixed_points(word_matrix(gens, w))[0])
        want_out = angle_of(fixed_points(word_matrix(gens, substitute(images, w)))[0])
        err_in = circular_distance(tin[i], want_in)
        err_out = circular_distance(tout[i], want_out)
        require(err_in <= SPOT_TOL and err_out <= SPOT_TOL,
                f"row {i} ({w}): theta_in off by {err_in:.3g}, theta_out off by {err_out:.3g}")
    return len(tin)


def check_verdict(verdict: dict, spec: dict, rows: int) -> None:
    require(verdict["order"] == "preserving", f"order verdict {verdict['order']!r}")
    require(verdict["sample_size"] == rows,
            f"verdict sample_size {verdict['sample_size']} != {rows} saved pairs")
    require(isinstance(verdict["skipped"], int) and verdict["skipped"] >= 0,
            "skipped is not a count")
    residual = float(verdict["residual"])
    if spec["identity"]:
        require(verdict["identity"] is True, "expected the identity verdict")
        require(verdict["best_inner"] == spec["best_inner"],
                f"best_inner {verdict['best_inner']!r} != {spec['best_inner']!r}")
        if spec["best_inner"] == "1":
            require(residual < IDENTITY_RESIDUAL_MAX, f"identity residual {residual}")
    else:
        require(verdict["identity"] is False, "expected a non-identity verdict")
        require(residual > TWIST_RESIDUAL_MIN, f"twist residual {residual} too small")


# ---------------------------------------------------------------------------
# plans


def check_plan(plan: dict, spec: dict) -> int:
    """-chi pants, every cuff slot claimed once, equal glued lengths,
    prescribed boundary lengths kept, total area -2 pi chi.  Returns the
    number of cuff slots."""
    g, c, b, a = spec["sig"]
    chi = 2 - 2 * g - c - b - a
    pants = plan["pants"]
    require(len(pants) == -chi, f"{len(pants)} pants for chi = {chi}")
    cuff = {}
    for p in pants:
        require(len(p["cuff_lengths"]) == 3, f"pants {p['id']} needs three cuffs")
        for k, x in enumerate(p["cuff_lengths"]):
            cuff[f"{p['id']}.c{k}"] = float(x)
    require(len(cuff) == 3 * len(pants), "pants ids repeat")
    claimed: dict[str, int] = {}
    for gl in plan["gluings"]:
        for slot in (gl["from"], gl["to"]):
            claimed[slot] = claimed.get(slot, 0) + 1
        require(gl["from"] in cuff and gl["to"] in cuff, f"gluing names unknown slot {gl}")
        require(cuff[gl["from"]] == cuff[gl["to"]] == float(gl["length"]),
                f"gluing {gl['from']}-{gl['to']} joins unequal lengths")
    for entry in plan["crosscaps"] + plan["boundary"]:
        claimed[entry["slot"]] = claimed.get(entry["slot"], 0) + 1
    for slot in plan["cusps"]:
        claimed[slot] = claimed.get(slot, 0) + 1
    twice = sorted(s for s, k in claimed.items() if k > 1)
    missing = sorted(set(cuff) - set(claimed))
    extra = sorted(set(claimed) - set(cuff))
    require(not twice, f"slots claimed twice: {twice[:5]}")
    require(not missing, f"slots never claimed: {missing[:5]}")
    require(not extra, f"unknown slots claimed: {extra[:5]}")
    require(len(plan["crosscaps"]) == c, f"{len(plan['crosscaps'])} crosscaps for c = {c}")
    require(len(plan["cusps"]) == a, f"{len(plan['cusps'])} cusps for a = {a}")
    require(all(cuff[s] == 0.0 for s in plan["cusps"]), "a cusp slot has nonzero length")
    require(len(plan["gluings"]) == (len(pants) - 1) + g,
            "gluings are not the pants chain plus one per handle")
    got = [float(e["length"]) for e in plan["boundary"]]
    require(got == [float(x) for x in spec["lengths"]],
            "prescribed boundary lengths not kept")
    require(all(cuff[e["slot"]] == float(e["length"]) for e in plan["boundary"]),
            "boundary slot length differs from its pants cuff")
    summary = plan["summary"]
    require(summary["pants_count"] == -chi, "summary pants_count differs from -chi")
    require(abs(summary["total_area"] - (-2.0 * math.pi * chi)) < AREA_TOL,
            f"total area {summary['total_area']} != -2 pi chi")
    require(summary["cuff_lengths"] == cuff, "summary cuff lengths differ from the pants")
    return len(cuff)


# ---------------------------------------------------------------------------
# signature calculus

#: the 11 compact-boundary surfaces with chi >= 0, in crosscap normal form
COMPACT_CATALOG = {
    (0, 0, 0, 1): "open disk",
    (0, 0, 1, 0): "closed disk",
    (0, 0, 0, 2): "open annulus",
    (0, 0, 1, 1): "half open annulus",
    (0, 0, 2, 0): "closed annulus",
    (0, 1, 0, 1): "open Möbius band",
    (0, 1, 1, 0): "closed Möbius band",
    (0, 0, 0, 0): "sphere",
    (0, 1, 0, 0): "projective plane",
    (1, 0, 0, 0): "torus",
    (0, 2, 0, 0): "Klein bottle",
}


def euler_chi(d: dict):
    """Integer chi, "-inf" for infinite chi; None if undetermined."""
    if d["kind"] == "finite":
        return 2 - 2 * d["g"] - d["c"] - d["b"] - d["a"]
    if d["kind"] in ("half_plane", "strip"):
        return 1
    return "-inf" if d["inf_chi"] else None


def expected_classification(d: dict) -> tuple[bool, object, object]:
    """(standard, chi, catalog name): standard iff chi < 0 or infinite
    type; otherwise the surface is one of the 13 catalog entries."""
    chi = euler_chi(d)
    if d["kind"] == "infinite":
        return True, chi, None
    if d["kind"] == "half_plane":
        return False, 1, "half plane"
    if d["kind"] == "strip":
        return False, 1, "doubly infinite strip"
    if chi < 0:
        return True, chi, None
    g, c, b, a = d["g"], d["c"], d["b"], d["a"]
    key = (0, c + 2 * g, b, a) if c > 0 else (g, 0, b, a)
    return False, chi, COMPACT_CATALOG[key]


def check_classify(out: dict, d: dict) -> None:
    standard, chi, name = expected_classification(d)
    require(out["standard"] is standard, f"{d}: standard = {out['standard']}")
    require(out["chi"] == chi, f"{d}: chi {out['chi']!r} != {chi!r}")
    require(out.get("name") == name, f"{d}: name {out.get('name')!r} != {name!r}")


def check_chi(out: dict, d: dict) -> None:
    require(chi_is_defined(d), f"{d}: chi is undetermined")
    require(out == {"chi": euler_chi(d)}, f"{d}: {out} != chi {euler_chi(d)!r}")


def check_double(out: dict, d: dict) -> None:
    """chi(2L) = 2 chi(L) - r; orientable (g,0,b,a) doubles to
    (2g+b-1,0,0,2a), the half plane to the open disk, the strip to the
    open annulus; nonorientable doubles are not modelled."""
    chi = euler_chi(d)
    r = {"half_plane": 1, "strip": 2}.get(d["kind"], 0)
    if d["kind"] == "half_plane":
        doubled = {"kind": "finite", "g": 0, "c": 0, "b": 0, "a": 1}
    elif d["kind"] == "strip":
        doubled = {"kind": "finite", "g": 0, "c": 0, "b": 0, "a": 2}
    elif d["c"] == 0:
        doubled = {"kind": "finite", "g": 2 * d["g"] + d["b"] - 1, "c": 0, "b": 0,
                   "a": 2 * d["a"]}
    else:
        doubled = None
    require(out["doubled"] == doubled, f"{d}: doubled {out['doubled']} != {doubled}")
    require(out["r"] == r, f"{d}: r {out['r']} != {r}")
    require(out["chi_two_chi_minus_r"] == 2 * chi - r, f"{d}: 2 chi - r wrong")
    require(out["chi_two_chi_plus_r"] == 2 * chi + r, f"{d}: 2 chi + r wrong")
    if doubled is None:
        require(out["chi_direct"] is None, f"{d}: chi_direct of an unmodelled double")
    else:
        require(out["chi_direct"] == euler_chi(doubled) == 2 * chi - r,
                f"{d}: chi_direct {out['chi_direct']} breaks chi(2L) = 2 chi(L) - r")
        require(expected_classification(doubled)[0] == expected_classification(d)[0],
                f"{d}: doubling changed standardness")


# ---------------------------------------------------------------------------
# rounds


def check_op(op: Op, rdir: Path, seed: int) -> int:
    """Check one successful operation's artifacts; returns its items."""
    stdout = (rdir / f"{op.name}.stdout").read_text(encoding="utf-8")
    if op.kind == "endpoints":
        text = (rdir / op.output).read_text(encoding="utf-8")
        if op.spec["format"] == "csv":
            angles, words = parse_endpoint_csv(text)
        else:
            angles, words = parse_endpoint_json(text)
        return check_endpoints(angles, words, op.spec,
                               spot_indices(seed, op.output, len(angles)))
    if op.kind == "circle-map":
        tin, tout, words = parse_circle_map_csv((rdir / op.output).read_text(encoding="utf-8"))
        items = check_circle_map(tin, tout, words, op.spec,
                                 spot_indices(seed, op.output, len(tin)))
        check_verdict(json.loads(stdout), op.spec, items)
        return items
    if op.kind == "plan":
        return check_plan(json.loads((rdir / op.output).read_text(encoding="utf-8")), op.spec)
    out = json.loads(stdout)
    d = op.spec["description"]
    {"classify": check_classify, "chi": check_chi, "double": check_double}[op.kind](out, d)
    return 1


def check_round(workload: Workload, results: list[OpResult], rdir: Path,
                seed: int) -> tuple[dict[str, int], list[str]]:
    """Items per operation and the list of problems found (empty when
    every output is correct and every failure is the expected one)."""
    items: dict[str, int] = {}
    problems: list[str] = []
    for op, res in zip(workload.ops, results):
        outcome = classify_outcome(op, res)
        if outcome == "unexpected-failure":
            problems.append(f"{op.name}: exit {res.rc} ({res.error})")
        if outcome != "ok":
            items[op.name] = 0
            continue
        try:
            items[op.name] = check_op(op, rdir, seed)
        except CheckFailed as e:
            problems.append(f"{op.name}: {e}")
            items[op.name] = 0
    return items, problems
