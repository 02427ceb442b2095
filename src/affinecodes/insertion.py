"""Row insertion on codes, recording tableaux, and reduced-word enumeration.

Multiplying an affine permutation by a single generator a_p on the right
corresponds to inserting the residue p into the rows of its decreasing
decomposition.  Row j holds residue r exactly when the code has the cell
((r + j - 1) mod k+1, j), so the insertion state is one map from the cells of
the code to labels.  The carried residue drops by one each time it passes a
row: it is included when neither its cell nor its predecessor's cell is
present, moves the predecessor's label into its own cell (a bump) when only
the predecessor's cell is present, and passes through unchanged (a braid)
when both are present.  Residue and row rise and fall together, so the
carry's cell stays in column p and its predecessor's in column p - 1: the
insertion climbs those two columns.  Labelling each included cell with its
step number yields a recording tableau; the map from reduced words to
recording tableaux of the final code is a bijection, inverted by
reverse_insert.

One in-place step (_insert_into_cells) does every insertion: insert_word runs
it on the labelled cells of the whole word, insert on the unlabelled cells of
one code, and both read the code back as the column counts of the cells.
reverse_insert undoes steps on the same map.  Reduced words are walked with
explicit stacks, so no path depends on the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import NotACode
from .permutations import LetterOutOfRange, RankTooSmall, _check_word


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


def _insert_into_cells(cells, p, n, label):
    """Insert residue p into a cell -> label map, bottom row first, in place.

    At row j the carried residue is p - j + 1, in cell (p, j), and its
    predecessor is in cell (p - 1, j).  Returns (steps, final_cell) as in
    InsertionTrace; the included cell gets label.  Raises DescentViolation at
    the first row holding the carried residue but not its predecessor; the map
    is then partly updated and must be discarded.
    """
    left = (p - 1) % n
    steps = []
    j = 1
    while (left, j) in cells:
        if (p, j) in cells:
            steps.append((j, "braid", (p - j + 1) % n))
        else:
            steps.append((j, "bump", (p - j + 1) % n))
            cells[p, j] = cells.pop((left, j))
        j += 1
    if (p, j) in cells:
        raise DescentViolation(f"residue {(p - j + 1) % n} at row {j}")
    steps.append((j, "include", (p - j + 1) % n))
    cells[p, j] = label
    return steps, (p, j)


def _code_of_cells(cells, n):
    code = [0] * n
    for column, _ in cells:
        code[column] += 1
    return tuple(code)


def insert(code, p):
    """Insert residue p into a code; returns (new code, trace).

    Raises DescentViolation when p is a descent of the coded element, which
    is exactly when the insertion meets a row containing p but not p - 1,
    RankTooSmall when the code has fewer than two entries, LetterOutOfRange
    when p is not a residue 0..k, and NotACode when an entry is negative or
    no entry is zero.
    """
    n = len(code)
    if n < 2:
        raise RankTooSmall(f"a code needs at least two entries, got {n}")
    if not 0 <= p < n:
        raise LetterOutOfRange(f"letter {p} is not in 0..{n - 1}")
    if min(code) != 0:
        raise NotACode(f"{tuple(code)} needs nonnegative entries and a zero entry")
    cells = {(i, j): None for i in range(n) for j in range(1, code[i] + 1)}
    steps, cell = _insert_into_cells(cells, p, n, None)
    return _code_of_cells(cells, n), InsertionTrace(tuple(steps), cell)


def insert_word(k, word):
    """Insert a whole word; returns (code, RecordingTableau).

    Raises NotReduced at the first letter whose insertion hits a descent,
    RankTooSmall for k < 1 and LetterOutOfRange for a letter outside 0..k.
    """
    word = _check_word(k, word)
    n = k + 1
    cells = {}
    for step, letter in enumerate(word):
        try:
            _insert_into_cells(cells, letter, n, step + 1)
        except DescentViolation:
            raise NotReduced(step) from None
    return _code_of_cells(cells, n), RecordingTableau(k, tuple(sorted(cells.items())))


def reverse_insert(code, tableau):
    """Recover the reduced word that produced (code, tableau).

    Peels the highest label: its column is the inserted letter, and walking
    back down that column and the one before it undoes bumps and braids,
    raising NotStandard whenever the cells cannot have recorded an insertion.
    """
    n = len(code)
    cells = tableau.as_dict()
    if sorted(cells.values()) != list(range(1, len(cells) + 1)):
        raise NotStandard("labels must be 1..N without repeats")
    diagram = {(i, j) for i in range(n) for j in range(1, code[i] + 1)}
    if set(cells) != diagram:
        raise NotStandard("labelled cells differ from the cells of the code")
    # Labels are unique, so this inverts cells; undone bumps keep it current.
    where = {label: cell for cell, label in cells.items()}
    word = []
    for step in range(len(cells), 0, -1):
        p, j = where.pop(step)
        left = (p - 1) % n
        if (left, j) in cells:
            raise NotStandard(f"label {step} does not sit on an includable cell")
        del cells[p, j]
        for t in range(j - 1, 0, -1):
            if (p, t) not in cells:
                raise NotStandard(f"undoing label {step} fails at row {t}")
            if (left, t) not in cells:
                moved = cells[left, t] = cells.pop((p, t))
                where[moved] = (left, t)
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
