"""Free-group words and automorphism plumbing.

Letters are nonzero integers: +k is the k-th generator (1-based), -k its
inverse.  The string form uses capital letters for generators and
lowercase for inverses ("AbA" = x1 x2^-1 x1).  Enumeration order is
shortlex with letters ordered A < a < B < b < ...; every routine that
iterates words does so in this order, which is what makes downstream
samples reproducible.

The shortlex word table has two forms, and each level of either grows
from the one before by `child_rows`, the one child rule.  `word_table` is
the unpruned table as one zero-padded letter matrix, whose levels
`groups` grows in place, the last a block at a time; `limit-set` and the
inner-correction search of `boundary` read it.  `shortlex_levels` builds
a table level by level, optionally pruned: the conjugacy classes of
`boundary` read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from hypsurf.errors import BudgetExceeded, IndexOutOfRange, InvalidInput

#: `word_table` and `shortlex_levels` refuse a table that generates more
#: than this many rows
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
        letters, k = self.letters, 0
        while len(letters) - 2 * k >= 2 and letters[k] == -letters[-1 - k]:
            k += 1
        return GroupWord(letters[k:len(letters) - k])

    def max_index(self) -> int:
        return max((abs(a) for a in self.letters), default=0)

    def conjugacy_class_rep(self) -> "GroupWord":
        """Lex-least among all cyclic rotations of the cyclic reduction and
        of its inverse; collapses conjugation and inversion."""
        w = self.cyclic_reduction().letters
        if not w:
            return GroupWord(())
        bases = (w, GroupWord(w).inverse().letters)
        keys = [tuple(_letter_key(a) for a in base) for base in bases]
        # one rotation at a time: memory linear in the length of w
        i, r = min(((i, r) for i in range(2) for r in range(len(w))),
                   key=lambda ir: keys[ir[0]][ir[1]:] + keys[ir[0]][:ir[1]])
        return GroupWord(bases[i][r:] + bases[i][:r])

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
    """Number of freely reduced words of length <= max_length >= 0,
    identity included: 1 + sum 2k(2k-1)^(i-1) for i = 1..max_length."""
    if rank < 1:
        raise InvalidInput("rank must be at least 1")
    if rank == 1:
        return 1 + 2 * max_length
    return 1 + rank * ((2 * rank - 1) ** max_length - 1) // (rank - 1)


def _cyclic_count(rank: int, length: int) -> int:
    """Number of cyclically reduced words of a length >= 1: the trace of
    the power of the 2k x 2k follower matrix (`_followers`), whose
    eigenvalues are 2k-1 once, +1 k times and -1 k-1 times."""
    return (2 * rank - 1) ** length + rank + (rank - 1) * (-1) ** length


@functools.cache
def _followers(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The alphabet A, a, B, b, ... of a rank, and the table whose row k
    holds the letters that may follow the letter with key k, in alphabet
    order: all but its inverse, whose key is k ^ 1.  Every caller shares
    them, so both are read-only."""
    gens = np.arange(1, rank + 1, dtype=np.int8)
    alphabet = np.column_stack([gens, -gens]).ravel()
    skip = np.arange(2 * rank - 1)
    table = alphabet[skip + (skip >= np.arange(2 * rank)[:, None] ^ 1)]
    alphabet.flags.writeable = table.flags.writeable = False
    return alphabet, table


def child_rows(rank: int, parents: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The children of the rows of one shortlex level, in shortlex order:
    each parent row followed by each letter that may follow its last one,
    in alphabet order, so row i is a child of parent row i // fan.  The
    empty word, a row of width 0, has the whole alphabet as its children
    (fan 2*rank); a longer row has all letters but the inverse of its
    last one (fan 2*rank - 1).  The rows are written to ``out`` when it is
    given, an int8 matrix of the children's shape.
    """
    alphabet, table = _followers(rank)
    count, length = parents.shape
    if length == 0:
        followers = np.broadcast_to(alphabet, (count, 2 * rank))
    else:
        followers = table[_letter_key(parents[:, -1].astype(np.intp))]
    fan = followers.shape[1]
    if out is None:
        out = np.empty((count * fan, length + 1), dtype=np.int8)
    # splitting the row axis is a view of any out, so the rows are written
    # in place, never to a copy
    grid = out.reshape(count, fan, length + 1)
    grid[:, :, :length] = parents[:, None, :]
    grid[:, :, length] = followers
    return out


def _check_table(rank: int, max_length: int) -> None:
    if max_length < 0:
        raise InvalidInput("max_length must be nonnegative")
    if rank < 1:
        raise InvalidInput("rank must be at least 1")
    if rank > 127:
        raise InvalidInput("the word table stores letters as int8: rank must be at most 127")


def _check_budget(generated: int) -> None:
    if generated > DEFAULT_WORD_BUDGET:
        raise BudgetExceeded(f"{generated} words exceed the budget of {DEFAULT_WORD_BUDGET}")


def shortlex_levels(rank: int, max_length: int, keep=None) -> list[np.ndarray]:
    """Levels 1..max_length of the shortlex tree of freely reduced words,
    each grown from the one before by `child_rows`.

    Level L is an int8 matrix with one row per word of length L, in
    shortlex order; level 1 is the alphabet A, a, B, b, ... as a column.

    ``keep`` prunes the tree: ``keep(rows)`` gets a level's rows and
    returns a boolean mask of the rows to keep; only kept rows are
    returned and grow children.  So row i of level L >= 2 is a child of
    row i // (2*rank - 1) of the kept level L-1, pruned or not.

    The rows each level generates, the kept parents times their fan, are
    counted with the empty word, and BudgetExceeded is raised before a
    level takes the count past `DEFAULT_WORD_BUDGET`.  Unpruned, the count
    is `word_count`.
    """
    _check_table(rank, max_length)
    levels = []
    level, generated = np.zeros((1, 0), dtype=np.int8), 1
    for length in range(1, max_length + 1):
        generated += len(level) * (2 * rank - (length > 1))
        _check_budget(generated)
        level = child_rows(rank, level)
        if keep is not None:
            level = level[keep(level)]
        levels.append(level)
    return levels


def word_table(rank: int, n: int) -> np.ndarray:
    """An all-zero int8 letter matrix of width n, one row for each freely
    reduced word of length <= n: row 0 is the empty word, and rows
    ``word_count(rank, L-1)`` to ``word_count(rank, L)`` are level L, for
    `groups._word_blocks` to grow in place.  It is refused, before it is
    allocated, as the unpruned `shortlex_levels` is."""
    _check_table(rank, n)
    for length in range(1, n + 1):
        _check_budget(word_count(rank, length))
    return np.zeros((word_count(rank, n), n), dtype=np.int8)


def enumerate_reduced_words(rank: int, max_length: int) -> list[GroupWord]:
    """All freely reduced words of length <= max_length, in shortlex order.

    The library reads `word_table` (or `shortlex_levels`) instead;
    this object form stays for callers that want `GroupWord`s, and
    perfbench's tracer names it.
    """
    levels = shortlex_levels(rank, max_length)
    return [GroupWord()] + [GroupWord(tuple(row)) for lv in levels for row in lv.tolist()]


def stack_padded(blocks, width: int) -> np.ndarray:
    """Letter matrices no wider than ``width`` stacked in order into one
    int8 matrix, each row zero-padded to ``width``."""
    out = np.zeros((sum(len(b) for b in blocks), width), dtype=np.int8)
    at = 0
    for b in blocks:
        out[at:at + len(b), :b.shape[1]] = b
        at += len(b)
    return out


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

    Rows are reduced together, as a stack per row in one flat array:
    each letter is replaced by its image from a zero-padded table, and the
    resulting stream is read one column at a time, a letter cancelling the
    row's top letter when they are inverse and pushed on it otherwise.
    The entries left above each row's final top are then cleared.  A
    row's image depends on its row alone, so a caller may reduce the rows
    in blocks.  A letter outside the rank of ``images`` raises
    IndexOutOfRange.
    """
    rank = len(images)
    letters = np.asarray(letters)
    if letters.size and (letters.max() > rank or letters.min() < -rank):
        outside = (letters > rank) | (letters < -rank)
        raise IndexOutOfRange(f"letter {letters[outside][0]} outside rank {rank}")
    # table[rank + x]: the image of letter x, zero-padded; the middle row
    # (padding letter 0) is empty
    width = max((len(w) for w in images), default=0)
    table = np.zeros((2 * rank + 1, width), dtype=np.int8)
    for i, w in enumerate(images, start=1):
        table[rank + i, :len(w)] = w.letters
        table[rank - i, :len(w)] = [-x for x in reversed(w.letters)]
    count = len(letters)
    # one stream column per row of `stream`; the width is explicit, which
    # a reshape of 0 rows cannot infer
    stream = np.ascontiguousarray(
        table[letters.astype(np.intp) + rank].reshape(count, letters.shape[1] * width).T)
    # one flat int8 stack of `depth` entries per row, each row's top held
    # as a flat index: row * depth + height.  Entry 0 of a row stays 0
    # under its stack, so the top is always readable
    depth = len(stream) + 1
    stack = np.zeros(count * depth, dtype=np.int8)
    base = np.arange(0, count * depth, depth)
    top = base.copy()
    for col in stream:
        # padding (0) cancels nothing, not even the 0 under an empty stack
        letter = col != 0
        cancel = (stack[top] == -col) & letter
        # each letter goes just above its row's top and becomes the top only
        # if pushed: the entries above a top are never read
        stack[top + 1] = col
        top += letter ^ cancel  # pushed
        top -= cancel
    top -= base
    out = stack.reshape(count, depth)[:, 1:top.max(initial=0) + 1]
    out[np.arange(out.shape[1]) >= top[:, None]] = 0
    return out


def invert_images(images: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """Not provided: `boundary.induced_boundary_sample` certifies an
    automorphism by a conjugacy test and never needs its inverse.  The name
    stays only because perfbench's tracer rebinds it; calling it raises."""
    raise NotImplementedError("hypsurf does not invert automorphisms")
