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

from dataclasses import dataclass

import numpy as np

from hypsurf.errors import BudgetExceeded, IndexOutOfRange, InvalidInput

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


def invert_images(images: tuple[GroupWord, ...]) -> tuple[GroupWord, ...]:
    """Not provided: `boundary.induced_boundary_sample` certifies an
    automorphism by a conjugacy test and never needs its inverse.  The name
    stays only because perfbench's tracer rebinds it; calling it raises."""
    raise NotImplementedError("hypsurf does not invert automorphisms")
