"""Independent reference computations the tests compare the library against.

Everything here deliberately avoids the code paths under test: enumeration is
graded by multiplication and parity alone (never by length()), lengths come
from a direct inversion count over the window, reduced words are counted
through left descents where the library recurses through right descents,
nil products compose windows and compare inversion counts where the library
acts with reduced words, canonical decompositions peel maximal right sets one
letter at a time where the library reads rows off the window-statistic code,
codes are counted position by position near each anchor where the library
counts residue classes in closed form, insertion carries row sets of
residues and fixes labels up after each step where the library moves labels
on one cell map, code counts come from a closed binomial formula, and k-Schur
sums come from the Pieri recursion on full sums where the library works on
rotation orbits.
"""

from __future__ import annotations

import math
from functools import lru_cache

from affinecodes import AffinePermutation, NilCoxSum
from affinecodes.codes import DECREASING, INCREASING, IdentityInput
from affinecodes.cyclic import d_word, u_word
from affinecodes.insertion import DescentViolation, NotReduced, NotStandard, RecordingTableau
from affinecodes.nilcox import h, weak_strips
from affinecodes.shapes import dominates


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


def max_right_set(x, direction=DECREASING):
    """The unique largest proper residue set peelable off the right of x.

    For each right descent i the connected run is grown away from i (upward
    for decreasing factors, downward for increasing) while the next letter
    stays a descent of the partially peeled element, capped at k residues so
    the set stays proper.  The union over descents is the answer.
    """
    n = x.n
    descents = x.right_descents()
    if not descents:
        raise IdentityInput("identity has no right descents")
    step = 1 if direction == DECREASING else -1
    result = set()
    for i in descents:
        t = i
        z = x.times_s(i)
        size = 1
        while size < n - 1 and (t + step) % n in z.right_descents():
            t = (t + step) % n
            z = z.times_s(t)
            size += 1
        result.update((i + step * s) % n for s in range(size))
    return frozenset(result)


def _peel(x, residues, direction):
    """Remove the factor on residues from the right of x, one letter at a time."""
    word = d_word(x.k, residues) if direction == DECREASING else u_word(x.k, residues)
    for letter in reversed(word):
        assert letter in x.right_descents(), "peeled letter must shorten the element"
        x = x.times_s(letter)
    return x


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


def window_code(x, variant):
    """One of the four codes, counted position by position.

    Entry i of each variant counts:
      rd: positions left of i+1 holding values above x(i+1)
      ri: positions right of i holding values below x(i)
      ld: positions left of the preimage of i holding values above i
      li: positions right of the preimage of i+1 holding values below i+1
    Preimages are found by search.  x(j) - j runs through the n values
    x(r) - r, so a position j counted against the anchor p satisfies
    |j - p| < (max window - min window) + n, and only that reach is scanned.
    """
    n = x.n
    reach = max(x.window) - min(x.window) + n

    def preimage(v):
        return next(p for p in range(v - reach, v + reach + 1) if x.value_at(p) == v)

    def left_above(p, v):
        return sum(1 for j in range(p - reach, p) if x.value_at(j) > v)

    def right_below(p, v):
        return sum(1 for j in range(p + 1, p + reach + 1) if x.value_at(j) < v)

    if variant == "rd":
        return tuple(left_above(i + 1, x.value_at(i + 1)) for i in range(n))
    if variant == "ri":
        return tuple(right_below(i, x.value_at(i)) for i in range(n))
    if variant == "ld":
        return tuple(left_above(preimage(i), i) for i in range(n))
    if variant == "li":
        return tuple(right_below(preimage(i + 1), i + 1) for i in range(n))
    raise ValueError(f"unknown variant {variant!r}")


def _rows_of_code(code):
    """Decreasing row sets, bottom row first: row j holds (i - j + 1) mod n
    for every column i with code[i] >= j."""
    n = len(code)
    return [
        {(i - j + 1) % n for i in range(n) if code[i] >= j}
        for j in range(1, max(code, default=0) + 1)
    ]


def _code_of_rows(n, rows):
    """Column i counts the rows j holding residue (i - j + 1) mod n."""
    return tuple(
        sum(1 for j, row in enumerate(rows, start=1) if (i - j + 1) % n in row)
        for i in range(n)
    )


def row_insert(rows, p, n):
    """Insert residue p into decreasing row sets, bottom row first, in place.

    Returns (steps, final_cell) as in InsertionTrace.  Raises DescentViolation
    at the first row holding the carried residue but not its predecessor.
    """
    steps = []
    carry = p
    for j, row in enumerate(rows, start=1):
        prev = (carry - 1) % n
        if prev in row:
            if carry in row:
                steps.append((j, "braid", carry))
            else:
                steps.append((j, "bump", carry))
                row.remove(prev)
                row.add(carry)
            carry = prev
        elif carry in row:
            raise DescentViolation(f"residue {carry} at row {j}")
        else:
            steps.append((j, "include", carry))
            row.add(carry)
            return steps, ((carry + j - 1) % n, j)
    rows.append({carry})
    j = len(rows)
    steps.append((j, "include", carry))
    return steps, ((carry + j - 1) % n, j)


def row_insert_word(k, word):
    """(code, RecordingTableau) of a word, carrying row sets and moving each
    bumped label after its step; NotReduced at the first descent."""
    n = k + 1
    rows = []
    labels = {}
    for step, letter in enumerate(word):
        try:
            steps, cell = row_insert(rows, letter, n)
        except DescentViolation:
            raise NotReduced(step) from None
        for j, action, carry in steps:
            if action == "bump":
                labels[((carry + j - 1) % n, j)] = labels.pop(((carry + j - 2) % n, j))
        labels[cell] = step + 1
    return _code_of_rows(n, rows), RecordingTableau(k, tuple(sorted(labels.items())))


def scanning_reverse_insert(code, tableau):
    """The word recorded by (code, tableau), undoing steps on row sets and
    finding each label's cell by scanning every label; NotStandard when the
    labels record no insertion."""
    n = len(code)
    labels = tableau.as_dict()
    if sorted(labels.values()) != list(range(1, len(labels) + 1)):
        raise NotStandard("labels must be 1..N without repeats")
    diagram = {(i, j) for i in range(n) for j in range(1, code[i] + 1)}
    if set(labels) != diagram:
        raise NotStandard("labelled cells differ from the cells of the code")
    rows = _rows_of_code(code)
    word = []
    for step in range(len(labels), 0, -1):
        (col, j), = (cell for cell, lab in labels.items() if lab == step)
        carry = (col - j + 1) % n
        row = rows[j - 1]
        if carry not in row or (carry - 1) % n in row:
            raise NotStandard(f"label {step} does not sit on an includable cell")
        row.remove(carry)
        del labels[(col, j)]
        for t in range(j - 1, 0, -1):
            carry = (carry + 1) % n
            row = rows[t - 1]
            if carry not in row:
                raise NotStandard(f"undoing label {step} fails at row {t}")
            if (carry - 1) % n not in row:
                row.remove(carry)
                row.add((carry - 1) % n)
                moved = labels.pop(((carry + t - 1) % n, t))
                labels[((carry + t - 2) % n, t)] = moved
        word.append(carry)
    assert not labels and not any(rows), "all cells must be consumed"
    return word[::-1]


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


def pieri_k_schur(k, parts, table):
    """Bounded-partition sum by the triangular h recursion on full sums:
    h of the smallest part times the sum for the other parts, as a nil
    product of NilCoxSums, less the sums of the other weak strips.  table
    maps partitions to their sums and is shared across calls.
    """
    if parts in table:
        return table[parts]
    if not parts:
        out = table[parts] = NilCoxSum.one(k)
        return out
    small = parts[-1]
    rest = parts[:-1]
    out = h(k, small) * pieri_k_schur(k, rest, table)
    strips = weak_strips(k, rest, small)
    assert parts in strips, "target shape must be a strip over its own base"
    for nu in strips:
        if nu != parts:
            assert dominates(nu, parts), "correction terms sit strictly above"
            out = out - pieri_k_schur(k, nu, table)
    table[parts] = out
    return out
