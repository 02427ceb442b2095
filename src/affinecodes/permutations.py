"""Affine permutations of the integers with periodic window notation.

An affine permutation of rank k is a bijection x of the integers with
x(i + k + 1) = x(i) + k + 1 and sum(x(1..k+1)) = (k+1)(k+2)/2.  It is stored
as the window (x(1), ..., x(k+1)).  Residue indices live in Z_{k+1}; the
simple generator s_i swaps the values in positions i and i+1 of every period.
Words multiply left to right: from_word(k, [a, b]) is s_a * s_b.
"""

from __future__ import annotations

import itertools


class WrongLength(ValueError):
    """Window does not have k+1 entries for any valid rank k >= 1."""


class BadSum(ValueError):
    """Window entries do not sum to (k+1)(k+2)/2."""


class RepeatedResidueClass(ValueError):
    """Two window entries are congruent mod k+1."""


class RankMismatch(ValueError):
    """Operands belong to groups of different rank."""


class RankTooSmall(ValueError):
    """Rank k < 1: there is no affine group on fewer than two residues."""


class LetterOutOfRange(ValueError):
    """A word letter that is not a residue 0..k."""


def _check_word(k, word):
    """Raise RankTooSmall unless k >= 1 and LetterOutOfRange unless every
    letter lies in 0..k; returns the word as a list."""
    if k < 1:
        raise RankTooSmall(f"rank must be at least 1, got {k}")
    word = list(word)
    for position, letter in enumerate(word):
        if not 0 <= letter <= k:
            raise LetterOutOfRange(
                f"letter {letter} at position {position} is not in 0..{k}"
            )
    return word


class AffinePermutation:
    """Immutable affine permutation; hashable, equality by rank and window."""

    __slots__ = ("k", "window", "_hash")

    def __init__(self, k, window):
        self.k = k
        self.window = tuple(window)
        self._hash = hash((k, self.window))

    @classmethod
    def from_window(cls, window):
        """Build from a window of k+1 integers, validating the group laws."""
        window = tuple(window)
        if len(window) < 2:
            raise WrongLength(f"need at least 2 window entries, got {len(window)}")
        n = len(window)
        expected = n * (n + 1) // 2
        if sum(window) != expected:
            raise BadSum(f"window sums to {sum(window)}, expected {expected}")
        if len({v % n for v in window}) != n:
            raise RepeatedResidueClass(f"window {window} repeats a residue class mod {n}")
        return cls(n - 1, window)

    @classmethod
    def identity(cls, k):
        return cls(k, range(1, k + 2))

    @classmethod
    def simple(cls, k, i):
        """The generator s_i; LetterOutOfRange unless 0 <= i <= k."""
        return cls.identity(k).times_s(i)

    @classmethod
    def from_word(cls, k, word):
        """Product s_{word[0]} * s_{word[1]} * ... (not necessarily reduced).

        Raises RankTooSmall for k < 1 and LetterOutOfRange for a letter
        outside 0..k.
        """
        word = _check_word(k, word)
        x = cls.identity(k)
        for letter in word:
            x = x.times_s(letter)
        return x

    @property
    def n(self):
        return self.k + 1

    def value_at(self, j):
        """x(j) for any integer j, via periodicity."""
        q, r = divmod(j - 1, self.n)
        return self.window[r] + q * self.n

    def position_of(self, v):
        """The integer j with x(j) = v."""
        n = self.n
        for j, w in enumerate(self.window, start=1):
            if (v - w) % n == 0:
                return j + (v - w) // n * n
        raise AssertionError("unreachable: window covers every residue class")

    def inverse(self):
        return AffinePermutation(self.k, _inverse_window(self.window))

    def __mul__(self, other):
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        if self.k != other.k:
            raise RankMismatch(f"rank {self.k} times rank {other.k}")
        return AffinePermutation(
            self.k, [self.value_at(other.value_at(i)) for i in range(1, self.n + 1)]
        )

    def times_s(self, i):
        """Right multiplication by s_i: swap positions i, i+1 in every period.

        Raises LetterOutOfRange unless 0 <= i <= k.
        """
        n = self.n
        if not 0 <= i < n:
            raise LetterOutOfRange(f"letter {i} is not in 0..{self.k}")
        w = list(self.window)
        if i == 0:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
        else:
            w[i - 1], w[i] = w[i], w[i - 1]
        return AffinePermutation(self.k, w)

    def s_times(self, i):
        """Left multiplication by s_i: swap values i, i+1 in every period.

        Raises LetterOutOfRange unless 0 <= i <= k.
        """
        n = self.n
        if not 0 <= i < n:
            raise LetterOutOfRange(f"letter {i} is not in 0..{self.k}")
        lo, hi = i, (i + 1) % n
        w = []
        for v in self.window:
            r = v % n
            if r == lo:
                w.append(v + 1)
            elif r == hi:
                w.append(v - 1)
            else:
                w.append(v)
        return AffinePermutation(self.k, w)

    def right_descents(self):
        """{i in 0..k : x(i) > x(i+1)}."""
        return frozenset(
            i for i in range(self.n) if self.value_at(i) > self.value_at(i + 1)
        )

    def left_descents(self):
        return self.inverse().right_descents()

    def length(self):
        """Coxeter length: number of inversion classes of the window."""
        n = self.n
        total = 0
        for i, j in itertools.combinations(range(1, n + 1), 2):
            diff = self.window[j - 1] - self.window[i - 1]
            total += abs(diff // n)
        return total

    def is_identity(self):
        return self.window == tuple(range(1, self.n + 1))

    def dynkin_rotate(self, m=1):
        """Rotate residues by m: the image y has y(i) = x(i - m) + m."""
        return AffinePermutation(
            self.k, [self.value_at(i - m) + m for i in range(1, self.n + 1)]
        )

    def __eq__(self, other):
        return (
            isinstance(other, AffinePermutation)
            and self.k == other.k
            and self.window == other.window
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"AffinePermutation(k={self.k}, window={self.window})"


def _inverse_window(window):
    """Window of the inverse of the element with this window, as a list."""
    n = len(window)
    inv = [0] * n
    for j, v in enumerate(window, start=1):
        q, r = divmod(v - 1, n)
        inv[r] = j - q * n
    return inv


def _peeled_word(window):
    """A reduced word of the element with this window, last letter first.

    Peels one right descent at a time: x(i) > x(i+1), with x(0) = x(n) - n.
    """
    n = len(window)
    w = list(window)
    letters = []
    while True:
        if w[n - 1] - n > w[0]:
            w[0], w[n - 1] = w[n - 1] - n, w[0] + n
            letters.append(0)
            continue
        for i in range(1, n):
            if w[i - 1] > w[i]:
                w[i - 1], w[i] = w[i], w[i - 1]
                letters.append(i)
                break
        else:
            return letters


def is_reduced(k, word):
    """True when the word multiplies without any length drop.

    Raises RankTooSmall for k < 1 and LetterOutOfRange for a letter outside
    0..k.
    """
    word = _check_word(k, word)
    x = AffinePermutation.identity(k)
    for letter in word:
        # multiplying by a current right descent shortens the element
        if x.value_at(letter) > x.value_at(letter + 1):
            return False
        x = x.times_s(letter)
    return True
