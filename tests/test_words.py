import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypsurf.errors import BudgetExceeded, IndexOutOfRange, InvalidInput, NotAnAutomorphism
from hypsurf.words import (
    GroupWord,
    compose_images,
    enumerate_reduced_words,
    free_reduce,
    invert_images,
    substitute,
    word_count,
)

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
    assert GroupWord.reduced((1, -1)).is_identity()


def test_string_roundtrip():
    w = W("AbCa")
    assert w.letters == (1, -2, 3, -1)
    assert str(w) == "AbCa"
    assert str(GroupWord()) == "1"
    assert W("1").is_identity()
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
    uu, vv = w.cyclic_split()
    assert uu == u and vv == v
    assert w.cyclic_reduction() == v
    assert v.is_cyclically_reduced()
    assert not w.is_cyclically_reduced()


def test_conjugacy_class_rep_merges_rotations_and_inverse():
    w = W("AB")
    candidates = {W("AB"), W("BA"), W("ab").inverse()}  # all in one class
    reps = {c.conjugacy_class_rep() for c in candidates}
    assert len(reps) == 1
    # inverse collapses into the same class representative
    assert W("AB").conjugacy_class_rep() == W("AB").inverse().conjugacy_class_rep()


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
    keys = [w.sort_key() for w in ws]
    assert keys == sorted(keys)
    assert ws == enumerate_reduced_words(3, 3)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_reduced_words(4, 8)
    with pytest.raises(BudgetExceeded):
        enumerate_reduced_words(2, 5, budget=10)
    with pytest.raises(InvalidInput):
        enumerate_reduced_words(2, -1)
    with pytest.raises(InvalidInput):  # the table stores letters as int8
        enumerate_reduced_words(128, 1)


@given(words(), words())
def test_substitution_is_a_homomorphism(u, v):
    images = (W("AB"), W("b"))
    assert substitute(images, u * v) == substitute(images, u) * substitute(images, v)


def test_substitute_index_range():
    with pytest.raises(IndexOutOfRange):
        substitute((W("A"),), W("B"))


def test_invert_images_known_cases():
    inv = invert_images((W("AB"), W("B")))
    assert inv == (W("Ab"), W("B"))
    inv = invert_images((W("A"), W("ABa")))
    assert inv == (W("A"), W("aBA"))
    inv = invert_images((W("b"), W("A")))
    assert compose_images((W("b"), W("A")), inv) == (W("A"), W("B"))


def test_invert_images_identity():
    gens = (W("A"), W("B"), W("C"))
    assert invert_images(gens) == gens


def test_invert_images_rejects_non_automorphisms():
    with pytest.raises(NotAnAutomorphism):
        invert_images((W("AA"), W("B")))
    with pytest.raises(NotAnAutomorphism):
        invert_images((W("AB"), W("BA")))
    with pytest.raises(NotAnAutomorphism):
        invert_images((W("A"), W("A")))


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
            mv[i] = gens[i] * GroupWord.generator(j, rng.choice((1, -1)))
            images = compose_images(images, tuple(mv))
        inv = invert_images(images)
        assert compose_images(images, inv) == tuple(gens)
        assert compose_images(inv, images) == tuple(gens)
