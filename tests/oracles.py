"""Reference implementations that the array fast paths replaced, and
references that tests of the library measure against.

They are kept only as test oracles: each new path must reproduce its
reference exactly, arrays bit for bit, dtype and shape included.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from hypsurf import words
from hypsurf.words import (
    GroupWord,
    _letter_key,
    free_reduce,
    substitute,
    word_count,
)
from hypsurf.boundary import BoundaryIdentityResult
from hypsurf.disk import (
    TOL_ANGLE,
    TWO_PI,
    DiskPoint,
    circle_angle,
    circle_fixed_points,
    is_certainly_hyperbolic,
    reduce_angle,
)
from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    LengthCountMismatch,
    NegativeLength,
    NotAnAutomorphism,
    NotHyperbolizable,
    NumericFailure,
)
from hypsurf.groups import (
    DEFAULT_DELTA,
    EndpointSample,
    SampleMode,
    _Block,
    _compose_rows,
    _letter_matrices,
    _word_blocks,
)
from hypsurf.pants import DEFAULT_GLUING_LENGTH
from hypsurf.signature import Signature
from hypsurf.text import dump_json


def word_levels(rep, n: int) -> list[_Block]:
    """Levels 1..n of the word table with their matrix entries, each whole:
    `groups._word_blocks` with the blocks of each level joined."""
    blocks = _word_blocks(rep, words.word_table(rep.rank, n))
    return [_Block(*map(np.concatenate, zip(*level)))
            for _, level in itertools.groupby(blocks, key=lambda blk: blk.letters.shape[1])]


def shortlex_levels(rank: int, max_length: int) -> list[np.ndarray]:
    """The unpruned word table, grown one level at a time.  Its budget is
    the program's rule, the rows the table generates, which unpruned is
    `word_count`; so `conjugacy_class_words` below, which builds this whole
    table, is refused where the program's pruned class table is not."""
    if max_length < 0:
        raise InvalidInput("max_length must be nonnegative")
    n = word_count(rank, max_length)
    if n > words.DEFAULT_WORD_BUDGET:
        raise BudgetExceeded(f"{n} words exceed the budget of {words.DEFAULT_WORD_BUDGET}")
    if rank > 127:
        raise InvalidInput("the word table stores letters as int8: rank must be at most 127")
    gens = np.arange(1, rank + 1, dtype=np.int8)
    alphabet = np.column_stack([gens, -gens]).ravel()
    children = np.array([np.delete(alphabet, k ^ 1) for k in range(2 * rank)])
    levels = [alphabet.reshape(-1, 1)] if max_length >= 1 else []
    for _ in range(2, max_length + 1):
        prev = levels[-1]
        last = children[_letter_key(prev[:, -1].astype(np.intp))]
        levels.append(np.hstack([np.repeat(prev, 2 * rank - 1, axis=0), last.reshape(-1, 1)]))
    return levels


def conjugacy_class_words(rank: int, n: int) -> np.ndarray:
    """Class representatives from the least packed rotation code of every
    cyclically reduced row of the whole table and of its inverse (letter
    keys as base-2k digits; exact Python integers past int64)."""
    levels = shortlex_levels(rank, n)
    base = 2 * rank
    reps: list[np.ndarray] = []
    for letters in levels:
        length = letters.shape[1]
        dtype = np.int64 if base**length <= 2**63 else object
        cyclic = letters[letters[:, 0] != -letters[:, -1]]
        keys = _letter_key(cyclic.astype(np.intp)).astype(dtype)
        powers = np.array([base**p for p in range(length - 1, -1, -1)], dtype=dtype)
        best = None
        for word in (keys, keys[:, ::-1] ^ 1):
            code = word @ powers
            for r in range(length):
                best = code if best is None else np.minimum(best, code)
                code = (code - word[:, r] * powers[0]) * base + word[:, r]
        _, first = np.unique(best, return_index=True)
        digits = best[np.sort(first), None] // powers % base
        rows = levels[0][digits.astype(np.intp), 0]
        reps.append(np.pad(rows, ((0, 0), (0, n - length))))
    return np.vstack(reps) if reps else np.zeros((0, n), dtype=np.int8)


def substitute_rows(images: tuple[GroupWord, ...], letters: np.ndarray) -> np.ndarray:
    """`substitute` row by row with `free_reduce`; letters must lie within
    the rank of ``images``."""
    pieces = {0: ()}
    for i, w in enumerate(images, start=1):
        pieces[i] = w.letters
        pieces[-i] = tuple(-x for x in reversed(w.letters))
    rows = [free_reduce(itertools.chain.from_iterable(map(pieces.__getitem__, row)))
            for row in letters.tolist()]
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    out = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.int8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = list(itertools.chain.from_iterable(rows))
    return out


def root_length(v: tuple) -> int:
    """Letters of the root r of a word v = r^j with j as large as can be, by
    definition: the least p dividing len(v) for which v equals its rotation
    by p letters."""
    m = len(v)
    return next((p for p in range(1, m) if m % p == 0 and v[p:] + v[:p] == v), m)


def attracting_angles(rep, letters: np.ndarray) -> np.ndarray:
    """`groups.attracting_angles` with every letter column taken by a row
    mask: the live rows' letters, a and b are gathered, and the products
    scattered back, in input row order.  A core's root comes from
    `root_length`, one row at a time."""
    la, lb = _letter_matrices(rep)
    letters = np.asarray(letters).astype(np.intp)
    count = len(letters)
    rows = np.arange(count)
    length = np.count_nonzero(letters, axis=1)
    # cyclic split w = u v u^-1: u is the first `start` letters of the row
    start = np.zeros(count, dtype=np.intp)
    peel = np.ones(count, dtype=bool)
    for k in range(letters.shape[1] // 2):
        last = letters[rows, np.maximum(length - 1 - k, 0)]
        peel &= (length - 2 * k >= 2) & (letters[:, k] == -last)
        if not peel.any():
            break
        start += peel
    core = np.array([root_length(tuple(row[s:m - s])) for row, s, m in zip(
        letters.tolist(), start.tolist(), length.tolist())], dtype=np.intp)

    a = np.ones(count, dtype=complex)
    b = np.zeros(count, dtype=complex)
    for c in range(core.max(initial=0)):
        live = np.flatnonzero(core > c)
        key = _letter_key(letters[live, start[live] + c])
        a[live], b[live] = _compose_rows(a[live], b[live], la[key], lb[key])

    ok = is_certainly_hyperbolic(a, b)
    z, _ = circle_fixed_points(a[ok], b[ok])
    walk, lead = letters[ok], start[ok]
    for c in range(lead.max(initial=0) - 1, -1, -1):
        live = np.flatnonzero(lead > c)
        key = _letter_key(walk[live, c])
        ga, gb, x = la[key], lb[key], z[live]
        x = (ga * x + gb) / (gb.conj() * x + ga.conj())
        z[live] = x / np.abs(x)
    out = np.full(count, np.nan)
    out[ok] = circle_angle(z)
    return out


def conjugacy_class_rep(w: GroupWord) -> GroupWord:
    """`GroupWord.conjugacy_class_rep` by its definition: every rotation of
    the cyclic reduction, peeled one letter pair at a time, and of its
    inverse, built up front."""
    letters = w.letters
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    if not letters:
        return GroupWord(())
    candidates = [base[r:] + base[:r]
                  for base in (letters, GroupWord(letters).inverse().letters)
                  for r in range(len(base))]
    return GroupWord(min(candidates, key=lambda ls: tuple(_letter_key(a) for a in ls)))


def compose_images(outer: tuple[GroupWord, ...],
                   inner: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """Images of the composite map outer after inner."""
    return tuple(substitute(outer, w) for w in inner)


def _identity_images(rank: int) -> tuple[GroupWord, ...]:
    return tuple(GroupWord.generator(i) for i in range(rank))


class PlateauCapReached(Exception):
    """`invert_images` gave up: neither an inverse nor a proof."""


#: plateau search gives up past this many equal-length tuples
_PLATEAU_CAP = 20000


def _plateau_descend(start, total, moves):
    """BFS through tuples of equal total length until one Whitehead move
    strictly decreases it; returns (tuple, move path, new total) or None."""
    frontier = [(start, ())]
    visited = {tuple(w.letters for w in start)}
    while frontier:
        nxt = []
        for tup, path in frontier:
            for mv in moves:
                cand = tuple(substitute(tup, w) for w in mv)
                cand_total = sum(len(w) for w in cand)
                if cand_total < total:
                    return cand, path + (mv,), cand_total
                if cand_total == total:
                    key = tuple(w.letters for w in cand)
                    if key not in visited:
                        visited.add(key)
                        nxt.append((cand, path + (mv,)))
            if len(visited) > _PLATEAU_CAP:
                raise PlateauCapReached(f"plateau of more than {_PLATEAU_CAP} tuples")
        frontier = nxt
    return None


@functools.cache
def _whitehead_moves(rank: int) -> tuple[tuple[GroupWord, ...], ...]:
    """Type-I moves (permute/invert generators) and type-II moves with a
    fixed multiplier, as image tuples; built once per rank."""
    gens = _identity_images(rank)
    moves = []
    # type I: swap a pair, or invert one generator
    for i in range(rank):
        imgs = list(gens)
        imgs[i] = gens[i].inverse()
        moves.append(tuple(imgs))
        for j in range(i + 1, rank):
            imgs = list(gens)
            imgs[i], imgs[j] = gens[j], gens[i]
            moves.append(tuple(imgs))
    # type II: multiplier t, each other generator x -> x, xt, t^-1 x, or t^-1 x t
    for tj in range(rank):
        for sign in (1, -1):
            t = GroupWord.generator(tj, sign)
            others = [i for i in range(rank) if i != tj]
            for combo in itertools.product(range(4), repeat=len(others)):
                if not any(combo):
                    continue
                imgs = list(gens)
                for i, action in zip(others, combo):
                    x = gens[i]
                    if action == 1:
                        imgs[i] = x * t
                    elif action == 2:
                        imgs[i] = t.inverse() * x
                    elif action == 3:
                        imgs[i] = t.inverse() * x * t
                moves.append(tuple(imgs))
    return tuple(moves)


def invert_images(images: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """The inverse of the endomorphism generator_i -> images[i] of a free
    group, or NotAnAutomorphism with a proof that there is none; the
    reference that `boundary.certify_automorphism` replaced.

    Whitehead reduction on the image tuple: moves are applied by
    precomposition until the tuple is a signed permutation of the
    generators; the accumulated moves then compose to the inverse.  Basis
    tuples admit length non-increasing paths to the standard basis, so the
    search descends greedily and breadth-first-searches plateaus of equal
    total length in between; a plateau with no exit is a proof of
    non-invertibility.  A plateau past `_PLATEAU_CAP` raises
    PlateauCapReached, which proves nothing.
    """
    rank = len(images)
    moves = _whitehead_moves(rank)
    current = tuple(images)
    applied: list[tuple[GroupWord, ...]] = []
    total = sum(len(w) for w in current)
    while total > rank:
        descent = _plateau_descend(current, total, moves)
        if descent is None:
            raise NotAnAutomorphism(f"images do not define an automorphism: {images}")
        current, path, total = descent
        applied.extend(path)
    # current must now be a signed permutation of the basis
    perm_images = list(_identity_images(rank))
    seen = set()
    for i, w in enumerate(current):
        if len(w) != 1 or abs(w.letters[0]) in seen:
            raise NotAnAutomorphism(f"images do not define an automorphism: {images}")
        a = w.letters[0]
        seen.add(abs(a))
        perm_images[abs(a) - 1] = GroupWord.generator(i, 1 if a > 0 else -1)
    applied.append(tuple(perm_images))
    # inverse = composition of the applied moves, innermost first
    inv = _identity_images(rank)
    for mv in applied:
        inv = compose_images(inv, mv)
    # both composites must be the identity on the nose
    gens = _identity_images(rank)
    assert compose_images(images, inv) == gens and compose_images(inv, images) == gens
    return inv


def plan_decomposition(
    s: Signature,
    boundary_lengths: tuple[float, ...] = (),
) -> dict:
    """`pants.plan_decomposition` as a role list laid along the chain,
    then a second pass that sorts the slots by role, built as the payload
    that `text.plan_json` renders, less its summary: dicts and lists of
    slot names and lengths, each gluing, crosscap and boundary slot with
    a length of its own."""
    chi = s.chi()
    if chi >= 0:
        raise NotHyperbolizable(f"chi = {chi} >= 0 admits no hyperbolic metric")
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

    # hole roles, in deterministic order: handle pairs, crosscaps,
    # boundary circles, cusps
    holes: list[tuple[str, float]] = []
    for _ in range(2 * s.g):
        holes.append(("handle", DEFAULT_GLUING_LENGTH))
    for _ in range(s.c):
        holes.append(("crosscap", DEFAULT_GLUING_LENGTH))
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
            node_cuffs[i][2] = DEFAULT_GLUING_LENGTH
            node_cuffs[i + 1][0] = DEFAULT_GLUING_LENGTH
        for k in owned:
            role, length = next(unplaced)
            slot_role[slots[k]] = (role, length)
            node_cuffs[i][k] = length

    pants = [{"id": f"p{i}", "cuff_lengths": node_cuffs[i]} for i in range(count)]
    gluings = [{"from": l, "to": r, "length": DEFAULT_GLUING_LENGTH, "twist": 0.0}
               for l, r in chain]
    crosscaps: list[dict] = []
    boundary: list[dict] = []
    cusps: list[str] = []
    handle_buffer: list[str] = []
    for slot, (role, length) in slot_role.items():
        if role == "handle":
            handle_buffer.append(slot)
            if len(handle_buffer) == 2:
                gluings.append({"from": handle_buffer[0], "to": handle_buffer[1],
                                "length": length, "twist": 0.0})
                handle_buffer.clear()
        elif role == "crosscap":
            crosscaps.append({"slot": slot, "length": length})
        elif role == "boundary":
            boundary.append({"slot": slot, "length": length})
        else:
            cusps.append(slot)
    assert not handle_buffer
    return {"pants": pants, "gluings": gluings, "crosscaps": crosscaps,
            "boundary": boundary, "cusps": cusps}


def plan_text(payload: dict) -> str:
    """`text.plan_json` of a reference payload: its summary (2*pi a pants,
    and the cuff map read from the payload's own pants) added, then the
    whole walked value by value by `dump_json`."""
    pants = payload["pants"]
    summary = {
        "total_area": 2.0 * math.pi * len(pants),
        "pants_count": len(pants),
        "cuff_lengths": {
            f"{p['id']}.c{k}": x for p in pants for k, x in enumerate(p["cuff_lengths"])
        },
    }
    return dump_json({**payload, "summary": summary})


def circle_net(theta: np.ndarray) -> np.ndarray:
    """`disk.circle_net` finding the last kept angle by walking back over
    the dropped ones (quadratic in the length of a cluster)."""
    order = np.argsort(theta, kind="stable")
    t = theta[order]
    keep = np.ones(len(t), dtype=bool)
    # only angles within TOL_ANGLE of their predecessor can be dropped
    for i in np.flatnonzero(np.diff(t) <= TOL_ANGLE) + 1:
        j = i - 1
        while not keep[j]:
            j -= 1
        keep[i] = t[i] - t[j] > TOL_ANGLE
    kept = order[keep]
    wrap = np.count_nonzero(theta[kept[0]] + TWO_PI - theta[kept[1:]] <= TOL_ANGLE)
    return kept[:len(kept) - wrap]


def stable_circle_net(theta: np.ndarray) -> np.ndarray:
    """`disk.circle_net` on a stable sort, which keeps the first of equal
    angles in input order without a tie repair."""
    order = np.argsort(theta, kind="stable")
    t = theta[order]
    n = len(t)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.greater(np.diff(t), TOL_ANGLE, out=keep[1:])
    last = np.flatnonzero(keep[:-2] & ~keep[1:-1] & ~keep[2:])
    while len(last):
        nxt = np.searchsorted(t, t[last] + TOL_ANGLE, side="right")
        while (step := t[nxt - 1] - t[last] > TOL_ANGLE).any():
            nxt -= step
        nxt = nxt[nxt < n]
        last = nxt[~keep[nxt]]
        keep[last] = True
    tail = max(1, int(np.searchsorted(t, t[0] + TWO_PI - TOL_ANGLE)))
    folded = np.count_nonzero(keep[tail:] & (t[0] + TWO_PI - t[tail:] <= TOL_ANGLE))
    kept = order[keep]
    return kept[:len(kept) - folded]


def limit_sample(rep, base: DiskPoint, n: int, mode, delta: float = DEFAULT_DELTA):
    """`groups.limit_sample` gathering each level's letter rows by mask,
    stacking them padded, and taking the stable net of the angles."""
    levels = word_levels(rep, n)
    theta_parts, letter_parts = [], []
    width = max(lv.letters.shape[1] for lv in levels)
    if mode is SampleMode.ORBIT_PROJECTION:
        z0 = base.z
        if abs(z0) > 1.0 - delta:
            theta_parts.append(np.array([reduce_angle(cmath.phase(z0))]))
            letter_parts.append(np.zeros((1, width), dtype=np.int8))
        for lv in levels:
            z = (lv.a * z0 + lv.b) / (np.conj(lv.b) * z0 + np.conj(lv.a))
            mask = np.abs(z) > 1.0 - delta
            theta_parts.append(reduce_angle(np.angle(z[mask])))
            letter_parts.append(lv.letters[mask])
    else:
        for lv in levels:
            cyc = lv.letters[:, 0] != -lv.letters[:, -1]
            mask = cyc & is_certainly_hyperbolic(lv.a, lv.b)
            rows = lv.letters[mask]
            for z in circle_fixed_points(lv.a[mask], lv.b[mask]):
                theta_parts.append(reduce_angle(np.angle(z)))
                letter_parts.append(rows)
    theta = np.concatenate(theta_parts)
    letters = words.stack_padded(letter_parts, width)
    net = stable_circle_net(theta)
    return EndpointSample(mode, theta[net], letters[net])


def inner_search(rep, sample, m: int, tol: float) -> BoundaryIdentityResult:
    """`boundary.is_boundary_identity` computing the full residual of every
    inner correction u, one numpy pass over the sample per u."""
    if m < 0:
        raise InvalidInput("search depth must be nonnegative")
    if not tol >= 0.0:
        raise InvalidInput(f"identity tolerance must be a nonnegative number, got {tol!r}")
    zout = np.exp(1j * sample.theta_out)
    unturn = np.exp(-1j * sample.theta_in)
    # the identity row, then the table in shortlex order, zero-padded to m
    rows, ua, ub = [np.zeros((1, m), dtype=np.int8)], [1.0 + 0j], [0j]
    for level in word_levels(rep, m):
        rows.append(np.pad(level.letters, ((0, 0), (0, m - level.letters.shape[1]))))
        ua += level.a.tolist()
        ub += level.b.tolist()
    residuals = np.empty(len(ua))
    for i, (a, b) in enumerate(zip(ua, ub)):
        w = (a * zout + b) / (b.conjugate() * zout + a.conjugate())
        residuals[i] = np.abs(np.angle(w * unturn)).max()
    best = int(np.argmin(residuals))  # the first minimum: shortlex wins ties
    best_res = float(residuals[best])
    letters = np.vstack(rows)
    return BoundaryIdentityResult(
        identity=best_res <= tol,
        best_inner=GroupWord.from_row(letters[best]),
        residual=best_res,
        near_minimizers=tuple(GroupWord.from_row(letters[i])
                              for i in np.flatnonzero(residuals <= 2.0 * best_res)),
        sample_size=len(sample),
        skipped=sample.skipped,
    )


def inner_conjugator(images: tuple[GroupWord, ...], m: int):
    """The word g with |g| <= m and images[i] == g x_i g^-1 for every
    generator x_i, or None: an exact test that the automorphism with these
    images is inner.  g is unique when the rank is at least 2, because
    then the free group has trivial centre; it is looked up in the word
    table, the empty word first.  On a surface group the test is
    sufficient for being inner but not necessary, so compare it only on
    free groups."""
    rank = len(images)
    candidates = [GroupWord()] + [GroupWord.from_row(row)
                                    for level in shortlex_levels(rank, m) for row in level]
    for g in candidates:
        ginv = g.inverse()
        if all(g * GroupWord.generator(i) * ginv == w for i, w in enumerate(images)):
            return g
    return None


def hyp_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance (curvature -1): the reference under which the
    isometries must preserve distance."""
    t = abs(p.z - q.z) / abs(1.0 - p.z.conjugate() * q.z)
    if t >= 1.0:
        raise NumericFailure("distance overflow near the boundary")
    return 2.0 * math.atanh(t)
