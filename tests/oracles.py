"""Reference implementations that the array fast paths replaced.

They are kept only as test oracles: each new path must reproduce its
reference exactly, arrays bit for bit, dtype and shape included.
"""

from __future__ import annotations

import itertools

import numpy as np

from hypsurf import words
from hypsurf.words import (
    GroupWord,
    _letter_key,
    free_reduce,
    word_count,
)
from hypsurf.errors import BudgetExceeded, InvalidInput


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
