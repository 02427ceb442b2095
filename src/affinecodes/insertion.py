"""Row insertion on codes, recording tableaux, and reduced-word enumeration.

Multiplying an affine permutation by a single generator a_p on the right
corresponds to inserting the residue p into the rows of its decreasing
decomposition.  The carried residue drops by one each time it passes a row:
it is included when neither it nor its predecessor is present, bumps the
predecessor upward when only the predecessor is present, and passes through
unchanged (a braid) when both are present.  Labelling each inserted cell with
its step number yields a recording tableau; the map from reduced words to
recording tableaux of the final code is a bijection, inverted by
reverse_insert.

One in-place row step (_insert_into_rows) does every insertion.  insert_word
carries mutable row sets through the whole word and builds its code once, at
the end; insert converts one code to rows and back around a single step.
Reduced words are walked with explicit stacks, so no path depends on the
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import DECREASING, CyclicDecomposition, _rows_of_code, code_of
from .permutations import LetterOutOfRange, _check_word


class DescentViolation(ValueError):
    """Inserting this residue multiplies by a current right descent (product 0)."""


class NotReduced(ValueError):
    """The word stops being reduced at the stored 0-based position."""

    def __init__(self, position):
        super().__init__(f"word is not reduced at position {position}")
        self.position = position


class NotStandard(ValueError):
    """The labels do not record any insertion history for this code."""


class BoundExceeded(ValueError):
    """More reduced words than the caller's bound."""


@dataclass(frozen=True)
class InsertionTrace:
    """Actions of one insertion, bottom row first.

    steps holds (row, action, residue) triples where residue is the value
    carried into that row and action is 'include', 'bump', or 'braid'.
    final_cell is the (column, row) of the included box.
    """

    steps: tuple
    final_cell: tuple


@dataclass(frozen=True)
class RecordingTableau:
    """Step labels on the cells of a code, as sorted ((column, row), label) pairs."""

    k: int
    cells: tuple

    def as_dict(self):
        return dict(self.cells)


def _code_of_rows(k, rows):
    rows = tuple(frozenset(row) for row in rows)
    return code_of(CyclicDecomposition(k, rows, DECREASING, "right"))


def _insert_into_rows(rows, p, n):
    """Insert residue p into decreasing row sets, bottom row first, in place.

    Returns (steps, final_cell) as in InsertionTrace.  Raises DescentViolation
    at the first row holding the carried residue but not its predecessor; the
    rows are then partly updated and must be discarded.
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


def insert(code, p):
    """Insert residue p into a code; returns (new code, trace).

    Raises DescentViolation when p is a descent of the coded element, which
    is exactly when the insertion meets a row containing p but not p - 1,
    and LetterOutOfRange when p is not a residue 0..k.
    """
    n = len(code)
    if not 0 <= p < n:
        raise LetterOutOfRange(f"letter {p} is not in 0..{n - 1}")
    rows = [set(row) for row in _rows_of_code(code, DECREASING)]
    steps, cell = _insert_into_rows(rows, p, n)
    return _code_of_rows(n - 1, rows), InsertionTrace(tuple(steps), cell)


def insert_word(k, word):
    """Insert a whole word; returns (code, RecordingTableau).

    Raises NotReduced at the first letter whose insertion hits a descent,
    RankTooSmall for k < 1 and LetterOutOfRange for a letter outside 0..k.
    """
    word = _check_word(k, word)
    n = k + 1
    rows = []
    labels = {}
    for step, letter in enumerate(word):
        try:
            steps, cell = _insert_into_rows(rows, letter, n)
        except DescentViolation:
            raise NotReduced(step) from None
        for j, action, carry in steps:
            if action == "bump":
                source = ((carry + j - 2) % n, j)
                labels[((carry + j - 1) % n, j)] = labels.pop(source)
        labels[cell] = step + 1
    return _code_of_rows(k, rows), RecordingTableau(k, tuple(sorted(labels.items())))


def reverse_insert(code, tableau):
    """Recover the reduced word that produced (code, tableau).

    Peels the highest label: its cell fixes the included residue, and walking
    back down the rows undoes bumps and braids, raising NotStandard whenever
    the cells cannot have recorded an insertion.
    """
    n = len(code)
    labels = tableau.as_dict()
    if sorted(labels.values()) != list(range(1, len(labels) + 1)):
        raise NotStandard("labels must be 1..N without repeats")
    diagram = {(i, j) for i in range(n) for j in range(1, code[i] + 1)}
    if set(labels) != diagram:
        raise NotStandard("labelled cells differ from the cells of the code")
    rows = list(_rows_of_code(code, DECREASING))
    word = []
    for step in range(len(labels), 0, -1):
        (col, j), = (cell for cell, lab in labels.items() if lab == step)
        carry = (col - j + 1) % n
        row = rows[j - 1]
        if carry not in row or (carry - 1) % n in row:
            raise NotStandard(f"label {step} does not sit on an includable cell")
        rows[j - 1] = row - {carry}
        del labels[(col, j)]
        for t in range(j - 1, 0, -1):
            carry = (carry + 1) % n
            row = rows[t - 1]
            has = carry in row
            has_prev = (carry - 1) % n in row
            if has and not has_prev:
                rows[t - 1] = row - {carry} | {(carry - 1) % n}
                moved = labels.pop(((carry + t - 1) % n, t))
                labels[(((carry - 1) % n + t - 1) % n, t)] = moved
            elif has and has_prev:
                pass
            else:
                raise NotStandard(f"undoing label {step} fails at row {t}")
        word.append(carry)
        while rows and not rows[-1]:
            rows.pop()
    assert not rows, "all cells must be consumed"
    return list(reversed(word))


def enumerate_reduced_words(x, bound=None):
    """All reduced words for x, via its right descents; sorted lexicographically.

    Raises BoundExceeded when the count passes bound.
    """
    if bound is not None and count_reduced_words(x) > bound:
        raise BoundExceeded(f"more than {bound} reduced words")
    words = []
    # peeled links the letters taken off so far, the latest first:
    # (letter, rest) pairs ending in None, which read the word left to right.
    stack = [(x, None)]
    while stack:
        y, peeled = stack.pop()
        descents = y.right_descents()
        if descents:
            stack.extend((y.times_s(i), (i, peeled)) for i in descents)
            continue
        word = []
        while peeled is not None:
            letter, peeled = peeled
            word.append(letter)
        words.append(word)
    return sorted(words)


def count_reduced_words(x, bound=None):
    """Number of reduced words for x, by summing over right descents."""
    memo = {}
    stack = [x]
    while stack:
        y = stack[-1]
        if y in memo:
            stack.pop()
            continue
        below = [y.times_s(i) for i in y.right_descents()]
        pending = [z for z in below if z not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[y] = sum(memo[z] for z in below) if below else 1
        stack.pop()
    total = memo[x]
    if bound is not None and total > bound:
        raise BoundExceeded(f"{total} reduced words exceeds bound {bound}")
    return total
