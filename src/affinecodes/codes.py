"""Canonical cyclic decompositions of affine permutations and their codes.

Every nonidentity affine permutation x factors uniquely as a product of
cyclically decreasing elements d_{A_m} ... d_{A_1} whose size vector
(|A_1|, ..., |A_m|) is lexicographically maximal; likewise with increasing
factors, and from the left (maximizing leftmost sizes first).  Rows are stored
rightmost factor first.

The code of a decomposition is a vector alpha indexed by Z_{k+1} with at least
one zero entry: column i counts the rows whose residue set contains the residue
belonging to column i at that row's level.  Cell (column i, row j) holds
residue i - j + 1 for decreasing rows and i + j - 1 for increasing rows, mod
k+1.  Left-side codes reuse the right-side formulas after reversing the row
list (which is the opposite-direction right decomposition of the inverse).

Each of the four codes is a window statistic: rd and ri count larger values
to the left or smaller values to the right of each position, per residue
class, and ld and li are ri and rd of the inverse.  Since the code determines
the decomposition, canonical_decomposition reads its rows off the code: row j
holds the filling residues of the cells at level j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclic import d_word, u_word
from .permutations import AffinePermutation, LetterOutOfRange, RankTooSmall, is_reduced


class IdentityInput(ValueError):
    """The identity has no maximal factor to extract."""


class NotMaximal(ValueError):
    """Row sets violate the shifted-containment law of a maximal decomposition."""


class NotContained(ValueError):
    """Skew pair (beta, alpha) needs alpha <= beta entrywise."""


class NotACode(ValueError):
    """A code needs nonnegative entries and at least one zero entry."""


class _ZeroType:
    """Sentinel for a vanishing product in the nil-Coxeter monoid."""

    def __repr__(self):
        return "ZERO"


ZERO = _ZeroType()

DECREASING = "decreasing"
INCREASING = "increasing"


@dataclass(frozen=True)
class CyclicDecomposition:
    """Factorization of an affine permutation into cyclic elements.

    rows lists residue sets with the rightmost factor first; direction says
    whether factors are decreasing or increasing; side records whether sizes
    were maximized from the right or the left.
    """

    k: int
    rows: tuple
    direction: str
    side: str

    def word(self):
        """Reduced word of the product, leftmost factor first."""
        letters = []
        make = d_word if self.direction == DECREASING else u_word
        for row in reversed(self.rows):
            letters.extend(make(self.k, row))
        return letters

    def element(self):
        return AffinePermutation.from_word(self.k, self.word())

    def code(self):
        return code_of(self)


def canonical_decomposition(x, direction=DECREASING, side="right"):
    """Maximal decomposition of x into cyclic factors of the given kind.

    Rows are read off the code of the same kind, so no letter is peeled: row j
    holds the filling residues of the cells at level j.  A left decomposition
    is the right decomposition of the inverse in the opposite direction, whose
    code is the left code of x, with its rows reversed.
    """
    if side == "left":
        flipped = INCREASING if direction == DECREASING else DECREASING
        code = affine_code(x, "ld" if direction == DECREASING else "li")
        rows = tuple(reversed(_rows_of_code(code, flipped)))
    else:
        code = affine_code(x, "rd" if direction == DECREASING else "ri")
        rows = _rows_of_code(code, direction)
    return CyclicDecomposition(x.k, rows, direction, side)


def _rows_of_code(code, direction):
    """Row sets, bottom row first, of the right decomposition with this code.

    Row j holds the filling residues of the cells at level j: (i - j + 1) mod
    k+1 for decreasing rows and (i + j - 1) mod k+1 for increasing rows, over
    the columns i with code[i] >= j.
    """
    n = len(code)
    shift = -1 if direction == DECREASING else 1
    # A list first: tuples grown from generators of hundreds of rows kept
    # resident memory creeping over repeated calls.
    return tuple([
        frozenset((i + shift * (j - 1)) % n for i in range(n) if code[i] >= j)
        for j in range(1, max(code, default=0) + 1)
    ])


def code_of(decomp):
    """Code vector of a maximal decomposition; NotMaximal if rows disobey it,
    LetterOutOfRange if a row holds a residue outside 0..k.

    Right-side maximality means each row is contained in the previous row
    shifted one step toward it (down for decreasing, up for increasing).
    Left-side rows are reversed and checked against the opposite direction,
    matching the right decomposition of the inverse element.
    """
    n = decomp.k + 1
    rows = decomp.rows
    direction = decomp.direction
    if decomp.side == "left":
        rows = tuple(reversed(rows))
        direction = INCREASING if direction == DECREASING else DECREASING
    shift = -1 if direction == DECREASING else 1
    # Containment keeps every later row inside 0..k.
    if rows and not all(0 <= r < n for r in rows[0]):
        raise LetterOutOfRange(f"row {set(rows[0])} holds a residue outside 0..{n - 1}")
    for j in range(len(rows) - 1):
        allowed = {(r + shift) % n for r in rows[j]}
        if not set(rows[j + 1]) <= allowed:
            raise NotMaximal(f"row {j + 2} is not contained in row {j + 1} shifted")
    code = [0] * n
    for j, row in enumerate(rows):
        for r in row:
            code[(r - shift * j) % n] += 1
    return tuple(code)


def _count_before_greater(x, position, threshold):
    """Number of integers j < position with x(j) > threshold."""
    n = x.n
    total = 0
    for r in range(1, n + 1):
        xr = x.window[r - 1]
        hi = (position - r - 1) // n
        lo = (threshold - xr) // n + 1
        total += max(0, hi - lo + 1)
    return total


def _count_after_less(x, position, threshold):
    """Number of integers j > position with x(j) < threshold."""
    n = x.n
    total = 0
    for r in range(1, n + 1):
        xr = x.window[r - 1]
        lo = (position - r) // n + 1
        hi = (threshold - xr - 1) // n
        total += max(0, hi - lo + 1)
    return total


def rd(x):
    """Right decreasing code: entry i counts the positions left of i+1
    holding values above x(i+1)."""
    return tuple(_count_before_greater(x, i + 1, x.value_at(i + 1)) for i in range(x.n))


def ri(x):
    """Right increasing code: entry i counts the positions right of i holding
    values below x(i)."""
    return tuple(_count_after_less(x, i, x.value_at(i)) for i in range(x.n))


def ld(x):
    """Left decreasing code, ri of the inverse: entry i counts the positions
    left of the preimage of i holding values above i."""
    return ri(x.inverse())


def li(x):
    """Left increasing code, rd of the inverse: entry i counts the positions
    right of the preimage of i+1 holding values below i+1."""
    return rd(x.inverse())


def affine_code(x, variant):
    """The code named by variant: 'rd', 'ri', 'ld' or 'li'."""
    codes = {"rd": rd, "ri": ri, "ld": ld, "li": li}
    if variant not in codes:
        raise ValueError(f"unknown variant {variant!r}")
    return codes[variant](x)


def code_descents(code):
    """Descent set of a code: columns strictly taller than their predecessor."""
    n = len(code)
    return frozenset(i for i in range(n) if code[(i - 1) % n] < code[i])


def _check_code(code):
    """RankTooSmall below two entries, NotACode for a negative or no zero entry."""
    if len(code) < 2:
        raise RankTooSmall(f"a code needs at least two entries, got {len(code)}")
    if min(code) != 0:
        raise NotACode(f"{tuple(code)} needs nonnegative entries and a zero entry")


def code_to_permutation(code):
    """The affine permutation whose right decreasing decomposition has this code.

    The diagram is cut at the smallest zero column, rows are read from the top
    row down, each right to left in the cut order, and the resulting word is
    multiplied out.
    """
    _check_code(code)
    n = len(code)
    z = code.index(0)
    columns = [(z + 1 + t) % n for t in range(n)]
    word = []
    for j in range(max(code), 0, -1):
        for c in reversed(columns):
            if code[c] >= j:
                word.append((c - j + 1) % n)
    return AffinePermutation.from_word(n - 1, word)


def two_row_maximize(k, b_set, a_set):
    """Maximize the two-row decreasing product d_B * d_A.

    Returns ZERO when the product vanishes, otherwise the pair
    (b_new, a_new) with d_{b_new} * d_{a_new} the same element, a_new the
    maximal right set, and b_new possibly empty.  Raises IdentityInput when
    both sets are empty.
    """
    word = d_word(k, b_set) + d_word(k, a_set)
    if not is_reduced(k, word):
        return ZERO
    rows = canonical_decomposition(AffinePermutation.from_word(k, word)).rows
    if not rows:
        raise IdentityInput("identity has no maximal factor to extract")
    assert len(rows) <= 2, "two reduced rows maximize to at most two rows"
    a_new, b_new = rows if len(rows) == 2 else (rows[0], frozenset())
    return b_new, a_new


def _check_contained(beta, alpha):
    if len(beta) != len(alpha):
        raise NotContained(f"codes of different lengths: {len(beta)} vs {len(alpha)}")
    if any(a > b for a, b in zip(alpha, beta)):
        raise NotContained(f"{alpha} is not contained in {beta}")


def is_horizontal_strip(beta, alpha):
    """No column of the skew diagram beta minus alpha holds two cells."""
    _check_contained(beta, alpha)
    return all(b - a <= 1 for a, b in zip(alpha, beta))


def is_vertical_strip(beta, alpha):
    """No row of the skew diagram beta minus alpha holds two cells.

    Codes live on a cylinder, so a row at a given level is a maximal cyclic
    run of columns of beta reaching that level; an empty column ends the row.
    When every column reaches the level the whole circle is a single row.
    """
    _check_contained(beta, alpha)
    n = len(beta)
    for level in range(1, max(beta, default=0) + 1):
        present = {i for i in range(n) if beta[i] >= level}
        if not present:
            break
        skew = {i for i in present if alpha[i] < level}
        if len(present) == n:
            if len(skew) > 1:
                return False
            continue
        for i in present:
            if (i - 1) % n in present:
                continue
            count, t = 0, i
            while t in present:
                if t in skew:
                    count += 1
                t = (t + 1) % n
            if count > 1:
                return False
    return True


def mirror_code(code):
    """Reverse a code about column 0: entry i moves to column -i mod n."""
    n = len(code)
    return tuple(code[(-i) % n] for i in range(n))


def k_conjugate_perm(x):
    """The box-complement symmetry x(q) -> 1 - x(1 - q).

    An involution that preserves length and trades the two code
    directions up to the column mirror: the decreasing code of the
    result is mirror_code(ri(x)) and its increasing code is
    mirror_code(rd(x)).  Right descents move to their mirrored
    positions i -> -i mod n.  A dominant element (reading word of a
    bounded shape) is sent to the dominant element of the shape's
    k-conjugate.
    """
    n = x.n
    window = [1 - x.value_at(1 - q) for q in range(1, n + 1)]
    return AffinePermutation.from_window(window)
