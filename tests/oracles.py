"""Reference implementations that the array fast paths replaced, and
references that tests of the library measure against.

They are kept only as test oracles: each new path must reproduce its
reference exactly, arrays bit for bit, dtype and shape included.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hypsurf import words
from hypsurf.words import (
    GroupWord,
    _letter_key,
    free_reduce,
    letter_rows_to_strings,
    word_count,
)
from hypsurf.boundary import OUT_CONSISTENCY_TOL, _circular_distance
from hypsurf.disk import TOL_ANGLE, TWO_PI, DiskPoint
from hypsurf.errors import (
    BudgetExceeded,
    InvalidInput,
    LengthCountMismatch,
    NegativeLength,
    NotHyperbolizable,
    NumericFailure,
    OrderViolation,
)
from hypsurf.pants import (
    DEFAULT_GLUING_LENGTH,
    BoundarySlot,
    CrosscapGluing,
    Gluing,
    PantsDecompositionPlan,
    PantsNode,
)
from hypsurf.signature import Signature


def shortlex_levels(rank: int, max_length: int) -> list[np.ndarray]:
    """The unpruned word table, grown one level at a time."""
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


def plan_decomposition(
    s: Signature,
    boundary_lengths: tuple[float, ...] = (),
) -> PantsDecompositionPlan:
    """`pants.plan_decomposition` as a role list laid along the chain,
    then a second pass that sorts the slots by role."""
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

    pants = tuple(
        PantsNode(f"p{i}", tuple(node_cuffs[i])) for i in range(count)
    )

    gluings = [Gluing(l, r, DEFAULT_GLUING_LENGTH) for l, r in chain]
    crosscaps: list[CrosscapGluing] = []
    boundary: list[BoundarySlot] = []
    cusps: list[str] = []
    handle_buffer: list[str] = []
    for slot, (role, length) in slot_role.items():
        if role == "handle":
            handle_buffer.append(slot)
            if len(handle_buffer) == 2:
                gluings.append(Gluing(handle_buffer[0], handle_buffer[1], length))
                handle_buffer.clear()
        elif role == "crosscap":
            crosscaps.append(CrosscapGluing(slot, length))
        elif role == "boundary":
            boundary.append(BoundarySlot(slot, length))
        else:
            cusps.append(slot)
    assert not handle_buffer

    return PantsDecompositionPlan(
        pants, tuple(gluings), tuple(crosscaps), tuple(boundary), tuple(cusps)
    )


def dedup_on_circle(tin: np.ndarray, tout: np.ndarray, letters: np.ndarray):
    """`boundary._dedup_on_circle` finding the last kept entry by walking
    back over the dropped ones (quadratic in the length of a cluster)."""
    order = np.argsort(tin, kind="stable")
    tin, tout, letters = tin[order], tout[order], letters[order]
    keep = np.ones(len(tin), dtype=bool)
    # only entries within TOL_ANGLE of their predecessor can collide
    for i in np.flatnonzero(np.diff(tin) <= TOL_ANGLE) + 1:
        j = i - 1
        while not keep[j]:
            j -= 1
        if tin[i] - tin[j] > TOL_ANGLE:
            continue
        if _circular_distance(tout[i], tout[j]) > OUT_CONSISTENCY_TOL:
            kept, dropped = letter_rows_to_strings(letters[[j, i]])
            raise OrderViolation(
                f"colliding inputs map to distinct outputs ({kept} vs {dropped})",
                triple=((float(tin[j]), float(tout[j])), (float(tin[i]), float(tout[i]))),
            )
        keep[i] = False
    tin, tout, letters = tin[keep], tout[keep], letters[keep]
    wrap = np.flatnonzero(tin[0] + TWO_PI - tin[1:] <= TOL_ANGLE) + 1
    clash = wrap[_circular_distance(tout[wrap], tout[0]) > OUT_CONSISTENCY_TOL]
    if len(clash):
        j = clash[-1]
        raise OrderViolation(
            "colliding inputs map to distinct outputs at the wraparound",
            triple=((float(tin[j]), float(tout[j])), (float(tin[0]), float(tout[0]))),
        )
    end = len(tin) - len(wrap)
    return tin[:end], tout[:end], letters[:end]


def hyp_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance (curvature -1): the reference under which the
    isometries must preserve distance."""
    t = abs(p.z - q.z) / abs(1.0 - p.z.conjugate() * q.z)
    if t >= 1.0:
        raise NumericFailure("distance overflow near the boundary")
    return 2.0 * math.atanh(t)
