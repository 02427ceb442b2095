"""Column insertion on codes, recording tableaux, and reduced-word enumeration.

Multiplying an affine permutation by a single generator a_p on the right
inserts the residue p into its right decreasing code alpha.  The rule touches
two columns: p is a descent exactly when alpha_p > alpha_{p-1}; otherwise
(alpha_{p-1}, alpha_p) becomes (alpha_p, alpha_{p-1} + 1).  Read row by row,
rows 1..alpha_p braid, rows alpha_p + 1..alpha_{p-1} bump, and the new cell
is included at row alpha_{p-1} + 1; cell (i, j) holds residue (i - j + 1)
mod k+1.  The insertion state is the code itself, as a list of column
heights, and one list of label slots per column: column i's labels, bottom
first, fill the first alpha_i slots.  The labels of column p - 1 above height
alpha_p move onto column p and the new label goes on top.  Labelling each
included cell with its step number yields a recording tableau; the map from
reduced words to recording tableaux of the final code is a bijection,
inverted by reverse_insert.

One in-place step (_insert_into_columns) does every insertion: insert_word
runs it on the labelled columns of the whole word and insert on unlabelled
columns of one code.  reverse_insert undoes steps on the same heights and
columns.  Columns are allocated once at full height: resizing them on every
step kept resident memory creeping.  Reduced words are walked with explicit
stacks, so no path depends on the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import _check_code
from .permutations import LetterOutOfRange, RankMismatch, _check_word


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


def _insert_into_columns(code, columns, p, label):
    """Insert residue p in place into code, a list of column heights, and
    columns, where column i keeps its labels bottom first in its first code[i]
    slots and has room for every label still to come.  With c = code[p] and
    d = code[p - 1], c > d is a descent: DescentViolation, nothing changed.
    Otherwise the labels of column p - 1 above height c move onto column p,
    label goes on top, and (code[p - 1], code[p]) becomes (c, d + 1).
    Returns (c, d): rows 1..c braid, rows c+1..d bump, row d+1 includes.
    """
    c, d = code[p], code[p - 1]
    if c > d:
        raise DescentViolation(f"residue {(p - d) % len(code)} at row {d + 1}")
    columns[p][c:d] = columns[p - 1][c:d]
    columns[p][d] = label
    code[p - 1], code[p] = c, d + 1
    return c, d


def insert(code, p):
    """Insert residue p into a code; returns (new code, trace).

    Raises DescentViolation when p is a descent of the coded element, that
    is when column p is taller than column p - 1, RankTooSmall when the code
    has fewer than two entries, LetterOutOfRange when p is not a residue
    0..k, and NotACode when an entry is negative or no entry is zero.
    """
    _check_code(code)
    n = len(code)
    if not 0 <= p < n:
        raise LetterOutOfRange(f"letter {p} is not in 0..{n - 1}")
    new = list(code)
    columns = [[None] * (max(code) + 1) for _ in range(n)]
    c, d = _insert_into_columns(new, columns, p, None)
    steps = [
        (j, "braid" if j <= c else "bump", (p - j + 1) % n) for j in range(1, d + 1)
    ]
    steps.append((d + 1, "include", (p - d) % n))
    return tuple(new), InsertionTrace(tuple(steps), (p, d + 1))


def insert_word(k, word):
    """Insert a whole word; returns (code, RecordingTableau).

    Raises NotReduced at the first letter whose insertion hits a descent,
    RankTooSmall for k < 1 and LetterOutOfRange for a letter outside 0..k.
    """
    word = _check_word(k, word)
    code = [0] * (k + 1)
    columns = [[None] * len(word) for _ in code]
    for step, letter in enumerate(word, start=1):
        try:
            _insert_into_columns(code, columns, letter, step)
        except DescentViolation:
            raise NotReduced(step - 1) from None
    cells = [
        ((i, j + 1), column[j])
        for i, column in enumerate(columns)
        for j in range(code[i])
    ]
    return tuple(code), RecordingTableau(k, tuple(cells))


def reverse_insert(code, tableau):
    """Recover the reduced word that produced (code, tableau).

    The highest label must top a column p taller than column p - 1; p is the
    inserted letter.  Dropping that label and moving column p's labels above
    the height of column p - 1 back onto it undoes the step.  Raises
    NotStandard whenever the labels cannot have recorded an insertion,
    RankTooSmall or NotACode when code is not a code, and RankMismatch when
    the tableau's rank is not len(code) - 1.
    """
    _check_code(code)
    n = len(code)
    if tableau.k != n - 1:
        raise RankMismatch(f"rank {tableau.k} tableau for a code of rank {n - 1}")
    cells = tableau.as_dict()
    if sorted(cells.values()) != list(range(1, len(cells) + 1)):
        raise NotStandard("labels must be 1..N without repeats")
    diagram = {(i, j) for i in range(n) for j in range(1, code[i] + 1)}
    if set(cells) != diagram:
        raise NotStandard("labelled cells differ from the cells of the code")
    heights = list(code)
    columns = [[cells.get((i, j)) for j in range(1, max(code) + 1)] for i in range(n)]
    word = []
    for step in range(len(cells), 0, -1):
        p = next((i for i, h in enumerate(heights) if h and columns[i][h - 1] == step), None)
        if p is None or heights[p - 1] >= heights[p]:
            raise NotStandard(f"label {step} does not top a column taller than its left")
        c, d = heights[p - 1], heights[p] - 1
        columns[p - 1][c:d] = columns[p][c:d]
        heights[p - 1], heights[p] = d, c
        word.append(p)
    return word[::-1]


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
