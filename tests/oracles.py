"""Independent reference computations the tests compare the library against.

Everything here deliberately avoids the code paths under test: enumeration is
graded by multiplication and parity alone (never by length()), lengths come
from a direct inversion count over the window, reduced words are counted
through left descents where the library recurses through right descents,
nil products compose windows and compare inversion counts where the library
acts with reduced words, canonical decompositions peel maximal right sets one
letter at a time where the library reads rows off the window-statistic code,
and code counts come from a closed binomial formula.
"""

from __future__ import annotations

import math
from functools import lru_cache

from affinecodes import AffinePermutation, NilCoxSum
from affinecodes.codes import DECREASING, INCREASING, _peel, max_right_set


def bfs_levels(k, bound):
    """Elements grouped by word length, built without calling length().

    Level m+1 is every one-letter extension of level m that is not already in
    levels m or m-1; the Coxeter graph is bipartite, so the exclusion grades
    correctly.
    """
    levels = [{AffinePermutation.identity(k)}]
    for m in range(bound):
        prev = levels[m - 1] if m else set()
        cur = levels[m]
        nxt = set()
        for z in cur:
            for i in range(k + 1):
                w = z.times_s(i)
                if w not in cur and w not in prev:
                    nxt.add(w)
        levels.append(nxt)
    return levels


def window_inversions(window):
    """Coxeter length via a raw inversion count on the window.

    Counts pairs i < j (j over all integers) with x(i) > x(j), one residue
    class of j at a time.
    """
    n = len(window)
    total = 0
    for i in range(1, n + 1):
        for c in range(1, n + 1):
            # inversions (i, c + t*n): need c + t*n > i and x(c) + t*n < x(i)
            t_min = (i - c) // n + 1
            diff = window[i - 1] - window[c - 1]
            t_max = -(-diff // n) - 1
            if t_max >= t_min:
                total += t_max - t_min + 1
    return total


def compose_windows(x, y):
    """Window of the composite x(y(i)), straight off the two window tuples."""
    n = len(x)
    out = []
    for v in y:
        q, r = divmod(v - 1, n)
        out.append(x[r] + q * n)
    return tuple(out)


def nil_product(a, b):
    """Nil product of two sums: each composite whose inversion count is the
    sum of its factors' counts, with the product of their coefficients."""
    out = {}
    for x, cx in a.terms().items():
        for y, cy in b.terms().items():
            z = compose_windows(x.window, y.window)
            if window_inversions(z) == window_inversions(x.window) + window_inversions(y.window):
                out[z] = out.get(z, 0) + cx * cy
    return NilCoxSum(a.k, {AffinePermutation(a.k, z): c for z, c in out.items()})


def peeled_decomposition(x, direction, side):
    """Rows of the maximal decomposition, rightmost factor first, by peeling.

    The right side repeatedly takes the largest proper residue set peelable
    off the right (max_right_set) and removes its factor letter by letter.
    The left side is the right decomposition of the inverse in the opposite
    direction, with its rows reversed.
    """
    if side == "left":
        flipped = INCREASING if direction == DECREASING else DECREASING
        return tuple(reversed(peeled_decomposition(x.inverse(), flipped, "right")))
    rows = []
    while not x.is_identity():
        top = max_right_set(x, direction)
        rows.append(top)
        x = _peel(x, top, direction)
    return tuple(rows)


def naive_right_descents(window):
    """{i : x(i) > x(i+1)} straight off the window tuple."""
    n = len(window)
    vals = [window[n - 1] - n] + list(window)  # positions 0..n
    return frozenset(i for i in range(n) if vals[i] > vals[i + 1])


def left_reduced_word_count(x):
    """Number of reduced words, recursing through left descents."""
    memo = {}

    def count(y):
        if y.is_identity():
            return 1
        if y in memo:
            return memo[y]
        total = sum(count(y.s_times(i)) for i in y.left_descents())
        memo[y] = total
        return total

    return count(x)


def code_count(n_slots, boxes):
    """Number of weak compositions of the given size with at least one zero."""
    if boxes == 0:
        return 1
    every = math.comb(boxes + n_slots - 1, n_slots - 1)
    all_positive = math.comb(boxes - 1, n_slots - 1)
    return every - all_positive


def bounded_partitions(k, size):
    """All partitions of the given size with parts at most k."""

    @lru_cache(maxsize=None)
    def rec(remaining, cap):
        if remaining == 0:
            return ((),)
        out = []
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                out.append((first,) + rest)
        return tuple(out)

    return list(rec(size, k))


def all_proper_connected(k):
    """Every connected proper interval of residues mod k+1, as frozensets."""
    n = k + 1
    out = []
    for bottom in range(n):
        for size in range(1, n):
            out.append(frozenset((bottom + t) % n for t in range(size)))
    return out
