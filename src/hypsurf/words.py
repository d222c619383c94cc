"""Free-group words and automorphism plumbing.

Letters are nonzero integers: +k is the k-th generator (1-based), -k its
inverse.  The string form uses capital letters for generators and
lowercase for inverses ("AbA" = x1 x2^-1 x1).  Enumeration order is
shortlex with letters ordered A < a < B < b < ...; every routine that
iterates words does so in this order, which is what makes downstream
samples reproducible.

`shortlex_levels` builds the one shortlex word table: word lists, the
matrix levels of `groups` and the conjugacy classes of `boundary` read it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from hypsurf.errors import BudgetExceeded, IndexOutOfRange, InvalidInput, NotAnAutomorphism

#: `shortlex_levels`, which builds every word table, refuses a table of
#: more than this many words
DEFAULT_WORD_BUDGET = 5_000_000


def _letter_key(letter):
    # A=0, a=1, B=2, b=3, ... for an int or an int array (wider than int8:
    # keys reach 2*rank); the inverse letter's key is key ^ 1
    return 2 * (abs(letter) - 1) + (letter < 0)


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(int(a))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word; construction rejects unreduced input."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        letters = tuple(int(a) for a in self.letters)
        for a in letters:
            if a == 0:
                raise InvalidInput("0 is not a letter")
        for x, y in zip(letters, letters[1:]):
            if x == -y:
                raise InvalidInput(f"word is not freely reduced: {letters}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def reduced(cls, letters) -> "GroupWord":
        return cls(free_reduce(letters))

    @classmethod
    def from_row(cls, row) -> "GroupWord":
        """The word in a zero-padded row of a letter matrix."""
        return cls(tuple(int(x) for x in row if x != 0))

    @classmethod
    def generator(cls, index: int, power: int = 1) -> "GroupWord":
        """Word for the 0-based generator raised to a power."""
        if index < 0:
            raise IndexOutOfRange(f"negative generator index {index}")
        letter = index + 1 if power >= 0 else -(index + 1)
        return cls((letter,) * abs(power))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord.reduced(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(-a for a in reversed(self.letters)))

    def cyclic_reduction(self) -> "GroupWord":
        letters = self.letters
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        return GroupWord(letters)

    def max_index(self) -> int:
        return max((abs(a) for a in self.letters), default=0)

    def conjugacy_class_rep(self) -> "GroupWord":
        """Lex-least among all cyclic rotations of the cyclic reduction and
        of its inverse; collapses conjugation and inversion."""
        w = self.cyclic_reduction().letters
        if not w:
            return GroupWord(())
        candidates = []
        for base in (w, GroupWord(w).inverse().letters):
            for r in range(len(base)):
                candidates.append(base[r:] + base[:r])
        best = min(candidates, key=lambda ls: tuple(_letter_key(a) for a in ls))
        return GroupWord(best)

    # -- string form -------------------------------------------------------

    def __str__(self) -> str:
        out = []
        for a in self.letters:
            if abs(a) > 26:
                raise InvalidInput("string form supports at most 26 generators")
            c = chr(ord("A") + abs(a) - 1)
            out.append(c if a > 0 else c.lower())
        return "".join(out) if out else "1"

    @classmethod
    def from_string(cls, s: str) -> "GroupWord":
        s = s.strip()
        if s in ("", "1"):
            return cls(())
        letters = []
        for c in s:
            if not c.isalpha():
                raise InvalidInput(f"bad word character {c!r}")
            idx = ord(c.upper()) - ord("A") + 1
            letters.append(idx if c.isupper() else -idx)
        return cls(tuple(letters))


def word_count(rank: int, max_length: int) -> int:
    """Number of freely reduced words of length <= max_length, identity
    included: 1 + sum 2k(2k-1)^(i-1)."""
    if rank < 1:
        raise InvalidInput("rank must be at least 1")
    total = 1
    grow = 2 * rank
    for _ in range(max_length):
        total += grow
        grow *= 2 * rank - 1
    return total


def shortlex_levels(rank: int, max_length: int, keep=None) -> list[np.ndarray]:
    """Levels 1..max_length of the shortlex tree of freely reduced words.

    Level L is an int8 matrix with one row per word of length L, in
    shortlex order; level 1 is the alphabet A, a, B, b, ... as a column.
    Row i of level L >= 2 is its parent, row i // (2*rank - 1) of level
    L-1, followed by one letter.

    ``keep`` prunes the tree: ``keep(rows, parent)`` gets a level's rows
    and, for each, the index of its parent row in the previous (pruned)
    level (``None`` at level 1), and returns a boolean mask of the rows to
    keep; only kept rows are returned and grow children, so the parent rule
    above holds for the unpruned table only.  The unpruned `word_count`
    may not exceed `DEFAULT_WORD_BUDGET`, or BudgetExceeded is raised.
    """
    if max_length < 0:
        raise InvalidInput("max_length must be nonnegative")
    n = word_count(rank, max_length)
    if n > DEFAULT_WORD_BUDGET:
        raise BudgetExceeded(f"{n} words exceed the budget of {DEFAULT_WORD_BUDGET}")
    if rank > 127:
        raise InvalidInput("the word table stores letters as int8: rank must be at most 127")
    fan = 2 * rank - 1
    gens = np.arange(1, rank + 1, dtype=np.int8)
    alphabet = np.column_stack([gens, -gens]).ravel()
    # children[k]: the letters that may follow the letter with key k
    children = np.array([np.delete(alphabet, k ^ 1) for k in range(2 * rank)])
    levels = []
    for length in range(1, max_length + 1):
        if length == 1:
            rows, parent = alphabet.reshape(-1, 1), None
        else:
            prev = levels[-1]
            last = children[_letter_key(prev[:, -1].astype(np.intp))]
            rows = np.hstack([np.repeat(prev, fan, axis=0), last.reshape(-1, 1)])
            parent = None if keep is None else np.repeat(np.arange(len(prev)), fan)
        if keep is not None:
            rows = rows[keep(rows, parent)]
        levels.append(rows)
    return levels


def enumerate_reduced_words(rank: int, max_length: int) -> list[GroupWord]:
    """All freely reduced words of length <= max_length, in shortlex order.

    The library reads `shortlex_levels` (or `groups._word_levels`) instead;
    this object form stays for callers that want `GroupWord`s, and
    perfbench's tracer names it.
    """
    levels = shortlex_levels(rank, max_length)
    return [GroupWord()] + [GroupWord(tuple(row)) for lv in levels for row in lv.tolist()]


def substitute(images: tuple[GroupWord, ...], w: GroupWord) -> GroupWord:
    """Apply the endomorphism generator_i -> images[i] to a word."""
    pieces: list[int] = []
    for a in w.letters:
        idx = abs(a) - 1
        if idx >= len(images):
            raise IndexOutOfRange(f"letter {a} outside rank {len(images)}")
        img = images[idx].letters
        pieces.extend(img if a > 0 else tuple(-x for x in reversed(img)))
    return GroupWord.reduced(pieces)


def substitute_rows(images: tuple[GroupWord, ...], letters: np.ndarray) -> np.ndarray:
    """`substitute` applied to every row of a zero-padded letter matrix;
    the images come back as one int8 matrix, zero-padded to the longest.

    All rows are reduced together, as a stack per row: each letter is
    replaced by its image from a zero-padded table, and the resulting
    stream is read one column at a time, a letter cancelling the row's
    top letter when they are inverse and pushed on it otherwise.  The
    entries left above each row's final top are then cleared.  A letter
    outside the rank of ``images`` raises IndexOutOfRange.
    """
    rank = len(images)
    letters = np.asarray(letters, dtype=np.intp)
    outside = np.abs(letters) > rank
    if outside.any():
        raise IndexOutOfRange(f"letter {letters[outside][0]} outside rank {rank}")
    # table[rank + x]: the image of letter x, zero-padded; the middle row
    # (padding letter 0) is empty
    width = max((len(w) for w in images), default=0)
    table = np.zeros((2 * rank + 1, width), dtype=np.int8)
    for i, w in enumerate(images, start=1):
        table[rank + i, :len(w)] = w.letters
        table[rank - i, :len(w)] = [-x for x in reversed(w.letters)]
    count, length = letters.shape
    # one stream column per row of `stream`
    stream = np.ascontiguousarray(table[letters + rank].reshape(count, length * width).T)
    # column 0 stays 0 under every row's stack, so the top is always readable
    stack = np.zeros((count, length * width + 1), dtype=np.int8)
    top = np.zeros(count, dtype=np.intp)
    rows = np.arange(count)
    for col in stream:
        # padding (0) cancels nothing, not even the 0 under an empty stack
        cancel = (stack[rows, top] == -col) & (col != 0)
        push = (col != 0) & ~cancel
        top += push
        top -= cancel
        stack[rows[push], top[push]] = col[push]
    out = stack[:, 1:top.max(initial=0) + 1]
    out[np.arange(out.shape[1]) >= top[:, None]] = 0
    return out


def compose_images(outer: tuple[GroupWord, ...],
                   inner: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """Images of the composite map outer after inner."""
    return tuple(substitute(outer, w) for w in inner)


def _identity_images(rank: int) -> tuple[GroupWord, ...]:
    return tuple(GroupWord.generator(i) for i in range(rank))


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
                raise NotAnAutomorphism(
                    "plateau search exceeded its cap; cannot certify invertibility"
                )
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


#: plateau search gives up past this many equal-length tuples
_PLATEAU_CAP = 20000


def invert_images(images: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """Invert the endomorphism generator_i -> images[i], or prove it is not
    an automorphism.

    Whitehead reduction on the image tuple: moves are applied by
    precomposition until the tuple is a signed permutation of the
    generators; the accumulated moves then compose to the inverse.  Basis
    tuples admit length non-increasing paths to the standard basis, so the
    search descends greedily and breadth-first-searches plateaus of equal
    total length in between; a plateau with no exit is a proof of
    non-invertibility (up to the search cap).
    """
    rank = len(images)
    for w in images:
        if w.max_index() > rank:
            raise IndexOutOfRange("image uses a generator outside the rank")
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
        if len(w) != 1:
            raise NotAnAutomorphism(f"images do not define an automorphism: {images}")
        a = w.letters[0]
        if abs(a) in seen:
            raise NotAnAutomorphism(f"images do not define an automorphism: {images}")
        seen.add(abs(a))
        perm_images[abs(a) - 1] = GroupWord.generator(i, 1 if a > 0 else -1)
    applied.append(tuple(perm_images))
    # inverse = composition of the applied moves, innermost first
    inv = _identity_images(rank)
    for mv in applied:
        inv = compose_images(inv, mv)
    # sanity: both composites must be the identity on the nose
    for i in range(rank):
        if substitute(images, inv[i]) != GroupWord.generator(i):
            raise NotAnAutomorphism(f"inversion check failed for {images}")
        if substitute(inv, images[i]) != GroupWord.generator(i):
            raise NotAnAutomorphism(f"inversion check failed for {images}")
    return inv
