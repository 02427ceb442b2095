import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinecodes import AffinePermutation, is_reduced
from affinecodes.permutations import (
    BadSum,
    LetterOutOfRange,
    RankMismatch,
    RankTooSmall,
    RepeatedResidueClass,
    WrongLength,
)
from goldens import (
    K3_DR,
    K3_INV_DR,
    K3_INV_WINDOW,
    K3_LENGTH,
    K3_WINDOW,
    K3_WORD,
    K7_DR,
    K7_WINDOW,
)
from oracles import naive_right_descents, window_inversions

words = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(min_value=0, max_value=k), max_size=10),
    )
)


def test_word_to_window_golden():
    x = AffinePermutation.from_word(3, K3_WORD)
    assert x.window == K3_WINDOW
    assert x.length() == K3_LENGTH == len(K3_WORD)
    assert x.right_descents() == K3_DR


def test_inverse_golden():
    x = AffinePermutation.from_window(K3_WINDOW)
    assert x.inverse().window == K3_INV_WINDOW
    assert x.inverse().right_descents() == K3_INV_DR
    assert x.inverse().inverse() == x


def test_descents_golden_rank7():
    assert AffinePermutation.from_window(K7_WINDOW).right_descents() == K7_DR


def test_window_validation():
    with pytest.raises(WrongLength):
        AffinePermutation.from_window([1])
    with pytest.raises(BadSum):
        AffinePermutation.from_window([1, 2, 4])
    with pytest.raises(RepeatedResidueClass):
        AffinePermutation.from_window([0, 3, 3])
    with pytest.raises(RankMismatch):
        AffinePermutation.identity(2) * AffinePermutation.identity(3)


def test_word_validation():
    for letter in (9, 4, -1):
        with pytest.raises(LetterOutOfRange):
            AffinePermutation.from_word(3, [1, letter])
    for k in (0, -2):
        with pytest.raises(RankTooSmall):
            AffinePermutation.from_word(k, [])
    assert AffinePermutation.from_word(3, [0, 3]).length() == 2


@pytest.mark.parametrize("letter", [9, 4, -1])
def test_generator_letter_range(letter):
    x = AffinePermutation.from_word(3, K3_WORD)
    with pytest.raises(LetterOutOfRange):
        AffinePermutation.simple(3, letter)
    with pytest.raises(LetterOutOfRange):
        x.times_s(letter)
    with pytest.raises(LetterOutOfRange):
        x.s_times(letter)
    with pytest.raises(LetterOutOfRange):
        is_reduced(3, [letter, 1])


def test_identity_and_simple():
    e = AffinePermutation.identity(3)
    assert e.is_identity() and e.length() == 0 and not e.right_descents()
    for i in range(4):
        s = AffinePermutation.simple(3, i)
        assert s.length() == 1
        assert s.right_descents() == {i}
        assert s * s == e


def test_value_position_duality():
    x = AffinePermutation.from_window(K3_WINDOW)
    for j in range(-9, 10):
        assert x.position_of(x.value_at(j)) == j
        assert x.value_at(j + 4) == x.value_at(j) + 4


def test_times_s_matches_multiplication():
    x = AffinePermutation.from_window(K3_WINDOW)
    for i in range(4):
        s = AffinePermutation.simple(3, i)
        assert x.times_s(i) == x * s
        assert x.s_times(i) == s * x


def test_left_descents_are_inverse_right_descents():
    x = AffinePermutation.from_window(K3_WINDOW)
    assert x.left_descents() == x.inverse().right_descents() == K3_INV_DR


def test_dynkin_rotate_shifts_generators():
    for k in (2, 3):
        for i in range(k + 1):
            s = AffinePermutation.simple(k, i)
            assert s.dynkin_rotate() == AffinePermutation.simple(k, (i + 1) % (k + 1))
    x = AffinePermutation.from_window(K3_WINDOW)
    assert x.dynkin_rotate(4) == x
    assert x.dynkin_rotate(1).dynkin_rotate(-1) == x
    assert x.dynkin_rotate(2).length() == x.length()


def test_length_against_inversion_oracle(enum_small):
    for depth, level in enumerate(enum_small):
        for z in level:
            assert z.length() == depth == window_inversions(z.window)
            assert z.right_descents() == naive_right_descents(z.window)


def test_reduced_words_golden():
    assert is_reduced(3, K3_WORD)
    assert not is_reduced(3, [0, 0])
    assert not is_reduced(3, K3_WORD + [K3_WORD[-1]])
    assert is_reduced(3, [])


@given(words)
def test_word_products(kw):
    k, word = kw
    x = AffinePermutation.from_word(k, word)
    assert x.length() <= len(word)
    assert (x.length() == len(word)) == is_reduced(k, word)
    rev = AffinePermutation.from_word(k, list(reversed(word)))
    assert rev == x.inverse()
    assert x.inverse().length() == x.length()
    n = k + 1
    assert sum(x.window) == n * (n + 1) // 2
    assert len({v % n for v in x.window}) == n


@given(words)
def test_descent_shortens(kw):
    k, word = kw
    x = AffinePermutation.from_word(k, word)
    for i in range(k + 1):
        shorter = x.times_s(i).length() < x.length()
        assert shorter == (i in x.right_descents())
