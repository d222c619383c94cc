import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypsurf import words as words_module
from hypsurf.errors import BudgetExceeded, IndexOutOfRange, InvalidInput, NotAnAutomorphism
from hypsurf.words import (
    GroupWord,
    child_rows,
    enumerate_reduced_words,
    free_reduce,
    substitute,
    substitute_rows,
    word_count,
)

import oracles

W = GroupWord.from_string


@st.composite
def words(draw, rank=2, max_len=6):
    letters = []
    alphabet = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=max_len))):
        letters.append(draw(st.sampled_from(alphabet)))
    return GroupWord.reduced(letters)


def test_free_reduce():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1, 1]) == (1,)
    assert free_reduce([]) == ()


def test_construction_rejects_unreduced():
    with pytest.raises(InvalidInput):
        GroupWord((1, -1))
    with pytest.raises(InvalidInput):
        GroupWord((0,))
    assert GroupWord.reduced((1, -1)) == GroupWord()


def test_string_roundtrip():
    w = W("AbCa")
    assert w.letters == (1, -2, 3, -1)
    assert str(w) == "AbCa"
    assert str(GroupWord()) == "1"
    assert W("1") == GroupWord()
    with pytest.raises(InvalidInput):
        W("A#B")


@given(words(), words())
def test_multiplication_and_inverse(u, v):
    assert (u * v) * (v.inverse() * u.inverse()) == GroupWord()
    assert u.inverse().inverse() == u


def test_cyclic_reduction_and_split():
    u = W("aB")
    v = W("AAb")
    w = u * v * u.inverse()
    assert w.cyclic_reduction() == v
    assert v.cyclic_reduction() == v
    assert W("Aba").cyclic_reduction() == W("b")


def test_conjugacy_class_rep_merges_rotations_and_inverse():
    w = W("AB")
    candidates = {W("AB"), W("BA"), W("ab").inverse()}  # all in one class
    reps = {c.conjugacy_class_rep() for c in candidates}
    assert len(reps) == 1
    # inverse collapses into the same class representative
    assert W("AB").conjugacy_class_rep() == W("AB").inverse().conjugacy_class_rep()


@given(words(max_len=8), words(max_len=5))
def test_conjugacy_class_rep_matches_its_definition(v, u):
    w = u * v * u.inverse()
    assert w.conjugacy_class_rep() == oracles.conjugacy_class_rep(w)
    assert w.conjugacy_class_rep() == v.conjugacy_class_rep()


def test_conjugacy_class_rep_of_a_long_word():
    # a conjugator of 4,000 letters peels in one pass, and the 1,006
    # rotations of the core and its inverse are compared one at a time
    u, v = W("AB" * 2000), W("A" + "Ba" * 250 + "BA")
    w = u * v * u.inverse()
    assert len(w) == 8000 + len(v)
    assert w.cyclic_reduction() == v
    assert w.conjugacy_class_rep() == oracles.conjugacy_class_rep(v)


def test_enumeration_counts():
    assert word_count(2, 0) == 1
    assert word_count(2, 1) == 5
    assert word_count(2, 2) == 17
    ws = enumerate_reduced_words(2, 2)
    assert len(ws) == 17
    assert sum(1 for w in ws if len(w) == 1) == 4
    assert sum(1 for w in ws if len(w) == 2) == 12
    ws0 = enumerate_reduced_words(3, 0)
    assert ws0 == [GroupWord()]


def test_enumeration_brute_force_oracle():
    # every length-3 sequence over the alphabet, filtered to reduced words
    alphabet = [1, -1, 2, -2]
    brute = {
        seq
        for seq in itertools.product(alphabet, repeat=3)
        if all(seq[i] != -seq[i + 1] for i in range(2))
    }
    ws = {w.letters for w in enumerate_reduced_words(2, 3) if len(w) == 3}
    assert ws == brute


def test_enumeration_shortlex_order_and_determinism():
    ws = enumerate_reduced_words(3, 3)
    # shortlex: by length, then letter by letter with A < a < B < b < ...
    keys = [(len(w), [2 * (abs(x) - 1) + (x < 0) for x in w.letters]) for w in ws]
    assert keys == sorted(keys)
    assert ws == enumerate_reduced_words(3, 3)


def test_enumeration_budget(monkeypatch):
    assert words_module.DEFAULT_WORD_BUDGET == 5_000_000
    with pytest.raises(BudgetExceeded):
        enumerate_reduced_words(4, 8)
    with pytest.raises(InvalidInput):
        enumerate_reduced_words(2, -1)
    with pytest.raises(InvalidInput):  # the table stores letters as int8
        enumerate_reduced_words(128, 1)
    # the budget is read when the table is built
    monkeypatch.setattr(words_module, "DEFAULT_WORD_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        enumerate_reduced_words(2, 5)


@pytest.mark.parametrize("rank, n", [(1, 7), (2, 5), (3, 4)])
def test_the_oracle_and_the_program_share_the_budget_boundary(monkeypatch, rank, n):
    # both count the rows a table generates; unpruned, that is word_count,
    # so both build the table at that budget and refuse it one row below,
    # the program also when it leaves the last level to the frontier blocks
    total = word_count(rank, n)
    monkeypatch.setattr(words_module, "DEFAULT_WORD_BUDGET", total)
    assert len(enumerate_reduced_words(rank, n)) == total
    assert len(oracles.shortlex_levels(rank, n)) == n
    monkeypatch.setattr(words_module, "DEFAULT_WORD_BUDGET", total - 1)
    messages = []
    for table in (enumerate_reduced_words, oracles.shortlex_levels, words_module.word_table):
        with pytest.raises(BudgetExceeded) as refused:
            table(rank, n)
        messages.append(str(refused.value))
    assert messages == [f"{total} words exceed the budget of {total - 1}"] * 3


def test_word_table_is_refused_at_the_first_level_past_the_budget():
    # the message names the first level's running count past the budget
    # (rank 4: 1,098,057 rows up to level 7, 7,686,401 up to level 8)
    for table, n in itertools.product((enumerate_reduced_words, words_module.word_table), (8, 9)):
        with pytest.raises(BudgetExceeded, match="^7686401 words exceed the budget of 5000000$"):
            table(4, n)
    for rank, n, message in ((2, -1, "max_length must be nonnegative"),
                             (0, 1, "rank must be at least 1"),
                             (128, 1, "rank must be at most 127")):
        for table in (enumerate_reduced_words, words_module.word_table):
            with pytest.raises(InvalidInput, match=message):
                table(rank, n)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_the_closed_form_counts_the_cyclically_reduced_rows(rank):
    # C(d) = (2k-1)^d + k + (k-1)(-1)^d, the count of cyclically reduced
    # words of length d at rank k that ROADMAP item 12's prenecklace count
    # rests on: the trace of the d-th power of the 2k x 2k follower matrix,
    # whose eigenvalues are 2k-1 once, +1 k times and -1 k-1 times. Checked
    # at every level up to the budget; at rank 1, whose levels are the
    # powers of A and of a, the first 12
    n = 12 if rank == 1 else max(n for n in range(1, 20)
                                 if word_count(rank, n) <= words_module.DEFAULT_WORD_BUDGET)
    for length, level in enumerate(oracles.shortlex_levels(rank, n), start=1):
        closed_form = (2 * rank - 1) ** length + rank + (rank - 1) * (-1) ** length
        assert closed_form == np.count_nonzero(level[:, 0] != -level[:, -1])


def test_child_rows_writes_its_rows_in_place():
    parents = oracles.shortlex_levels(2, 2)[-1]
    out = np.zeros((3 * len(parents), 3), dtype=np.int8)
    assert child_rows(2, parents, out=out) is out
    assert _same_array(out, oracles.shortlex_levels(2, 3)[-1])
    # also into a strided out, as into the rows of a wider table
    wide = np.zeros((3 * len(parents), 6), dtype=np.int8)
    child_rows(2, parents, out=wide[:, ::2])
    assert _same_array(wide[:, ::2], out) and not wide[:, 1::2].any()


def _same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("rank, n", [(1, 9), (2, 0), (2, 1), (2, 8), (3, 5), (4, 4)])
def test_enumerate_reduced_words_matches_the_oracle(rank, n):
    ref = oracles.shortlex_levels(rank, n)
    assert len(ref) == n
    assert enumerate_reduced_words(rank, n) == \
        [GroupWord()] + [GroupWord(tuple(row)) for level in ref for row in level.tolist()]
    # row i's prefix is row i // fan of the level above
    for above, rows in zip(ref, ref[1:]):
        assert np.array_equal(rows[:, :-1], above[np.arange(len(rows)) // (2 * rank - 1)])


def _random_letter_matrix(rng, rank, count, width):
    # zero-padded random words, reduced or not, some of them empty
    out = np.zeros((count, width), dtype=np.int8)
    letters = [k for k in range(-rank, rank + 1) if k]
    for row in out:
        length = rng.randrange(width + 1) if rng.random() > 0.1 else 0
        row[:length] = [rng.choice(letters) for _ in range(length)]
    return out


def _long_images():
    # a product of transvections: images of length 20 and more
    rng = random.Random(5)
    gens = (W("A"), W("B"), W("C"))
    images = gens
    while min(len(w) for w in images) < 20:
        i, j = rng.sample(range(3), 2)
        mv = list(gens)
        mv[i] = gens[i] * GroupWord((rng.choice((1, -1)) * (j + 1),))
        images = oracles.compose_images(images, tuple(mv))
    return images


@pytest.mark.parametrize("images", [
    (W("AB"), W("B")),
    (W("A"), W("ABa"), W("ACa"), W("ADa")),  # inner: heavy cancellation
    (W("bAB"), W("bAAB")),
    (W("A"), W("B")),
    (W(""), W("B")),
    _long_images(),
], ids=["twist", "inner", "conjugated", "identity", "not-injective", "long"])
def test_substitute_rows_matches_row_by_row_oracle(images):
    rank = len(images)
    rng = random.Random(rank * 31 + sum(len(w) for w in images))
    cases = [
        _random_letter_matrix(rng, rank, 400, 9),
        oracles.conjugacy_class_words(rank, 5 if rank > 2 else 7),
        np.zeros((5, 4), dtype=np.int8),
        np.zeros((0, 3), dtype=np.int8),
        np.zeros((3, 0), dtype=np.int8),
    ]
    for letters in cases:
        assert _same_array(substitute_rows(images, letters),
                           oracles.substitute_rows(images, letters))


@pytest.mark.parametrize("images", [
    (W("AB"), W("B")),
    (W("A"), W("ABa"), W("ACa"), W("ADa")),
    _long_images(),
], ids=["twist", "inner", "long"])
def test_substitute_rows_inverse_images_restore_the_rows(images):
    rows = oracles.conjugacy_class_words(len(images), 4)
    back = substitute_rows(oracles.invert_images(images), substitute_rows(images, rows))
    assert _same_array(back, rows)


def test_substitute_rows_rejects_letters_outside_rank():
    images = (W("AB"), W("B"))
    for bad in ([[1, 3]], [[-3, 0]], [[2, -2, 1, 5]]):
        with pytest.raises(IndexOutOfRange):
            substitute_rows(images, np.array(bad, dtype=np.int8))


@given(words(), words())
def test_substitution_is_a_homomorphism(u, v):
    images = (W("AB"), W("b"))
    assert substitute(images, u * v) == substitute(images, u) * substitute(images, v)


def test_substitute_index_range():
    with pytest.raises(IndexOutOfRange):
        substitute((W("A"),), W("B"))


# -- the Whitehead inversion, a test oracle (tests/oracles.py) that the
# commutator test of `boundary.certify_automorphism` is checked against


def test_whitehead_moves_are_built_once_per_rank():
    moves = oracles._whitehead_moves(4)
    assert isinstance(moves, tuple) and len(moves) == 514
    assert oracles._whitehead_moves(4) is moves
    assert len(oracles._whitehead_moves(2)) == 2 + 1 + 2 * 2 * 3


def test_invert_images_known_cases():
    inv = oracles.invert_images((W("AB"), W("B")))
    assert inv == (W("Ab"), W("B"))
    inv = oracles.invert_images((W("A"), W("ABa")))
    assert inv == (W("A"), W("aBA"))
    inv = oracles.invert_images((W("b"), W("A")))
    assert oracles.compose_images((W("b"), W("A")), inv) == (W("A"), W("B"))


def test_invert_images_identity():
    gens = (W("A"), W("B"), W("C"))
    assert oracles.invert_images(gens) == gens


def test_invert_images_rejects_non_automorphisms():
    with pytest.raises(NotAnAutomorphism):
        oracles.invert_images((W("AA"), W("B")))
    with pytest.raises(NotAnAutomorphism):
        oracles.invert_images((W("AB"), W("BA")))
    with pytest.raises(NotAnAutomorphism):
        oracles.invert_images((W("A"), W("A")))


def test_invert_images_random_compositions():
    rng = random.Random(99)
    gens = [W("A"), W("B"), W("C")]
    for _ in range(20):
        images = tuple(gens)
        for _ in range(rng.randrange(1, 6)):
            i = rng.randrange(3)
            j = rng.randrange(3)
            while j == i:
                j = rng.randrange(3)
            mv = list(gens)
            mv[i] = gens[i] * GroupWord((rng.choice((1, -1)) * (j + 1),))
            images = oracles.compose_images(images, tuple(mv))
        inv = oracles.invert_images(images)
        assert oracles.compose_images(images, inv) == tuple(gens)
        assert oracles.compose_images(inv, images) == tuple(gens)
