"""Bounded partitions, cores, boundaries, splits, and Grassmannian words.

A partition is k-bounded when every part is at most k; it corresponds to a
unique (k+1)-core, a partition with no cell of hook length exactly k+1.  The
boundary of a core is the set of cells with hook at most k; deleting the rest
and left-justifying recovers the bounded partition.  When the boundary falls
apart into diagonal blocks, the core splits, and each block is itself the
boundary of a smaller core.

Grassmannian elements (all right descents at 0) correspond to k-bounded
partitions; their canonical words read off a residue filling of the partition
(decreasing, by rows) or of the transposed k-conjugate (increasing, by
columns).
"""

from __future__ import annotations

from .permutations import AffinePermutation


class NotACore(ValueError):
    """The partition has a cell of hook length exactly k+1."""


class SizeMismatch(ValueError):
    """Dominance needs partitions of equal total size."""


def _check_partition(parts):
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must weakly decrease: {parts}")
    return parts


def conjugate(parts):
    """Transpose of the diagram."""
    parts = _check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def hook(parts, r, c):
    """Hook length of cell (row r, column c), 1-indexed."""
    cols = conjugate(parts)
    return (parts[r - 1] - c) + (cols[c - 1] - r) + 1


def to_core(k, bounded):
    """The (k+1)-core whose boundary left-justifies to the given partition.

    Rows are shifted right, bottom row first, each by the least amount that
    keeps the row's first cell at hook length at most k while staying inside
    the rows already placed below.
    """
    bounded = _check_partition(bounded)
    if any(p > k for p in bounded):
        raise ValueError(f"parts must be at most {k}: {bounded}")
    n = len(bounded)
    core = [0] * n
    for r in range(n, 0, -1):
        lam = bounded[r - 1]
        shift = max(0, (core[r] if r < n else 0) - lam)
        while True:
            leg = sum(1 for rr in range(r + 1, n + 1) if core[rr - 1] >= shift + 1)
            if (lam - 1) + leg + 1 <= k:
                break
            shift += 1
        core[r - 1] = lam + shift
    return tuple(core)


def from_core(k, core):
    """The k-bounded partition counting each row's cells of hook at most k."""
    core = _check_partition(core)
    bounded = []
    for r in range(1, len(core) + 1):
        row = 0
        for c in range(1, core[r - 1] + 1):
            h = hook(core, r, c)
            if h == k + 1:
                raise NotACore(f"cell ({r}, {c}) has hook {k + 1}")
            if h <= k:
                row += 1
        bounded.append(row)
    while bounded and bounded[-1] == 0:
        bounded.pop()
    return tuple(bounded)


def k_boundary(k, core):
    """Inner shape of the cells with hook above k; pairs with core.

    Returns the inner partition, so the boundary is the skew shape
    core / inner.
    """
    core = _check_partition(core)
    inner = []
    for r in range(1, len(core) + 1):
        inner.append(sum(1 for c in range(1, core[r - 1] + 1) if hook(core, r, c) > k))
    while inner and inner[-1] == 0:
        inner.pop()
    _check_partition(inner)
    return tuple(inner)


def split_components(k, core):
    """Connected blocks of the boundary of a (k+1)-core, bottom block first.

    Adjacent rows belong to the same block exactly when their boundary column
    ranges overlap.  Each block of rows, left-justified, is a k-bounded
    partition and is returned as its own core.
    """
    bounded = from_core(k, core)
    if not bounded:
        return []
    inner = k_boundary(k, core)
    inner = tuple(inner) + (0,) * (len(core) - len(inner))
    blocks = []
    start = 1
    for r in range(1, len(core)):
        # rows r and r+1 share a boundary column iff inner_r < core_{r+1}
        if inner[r - 1] >= core[r]:
            blocks.append((start, r))
            start = r + 1
    blocks.append((start, len(core)))
    return [
        to_core(k, bounded[lo - 1 : hi]) for lo, hi in reversed(blocks)
    ]


def k_conjugate_partition(k, bounded):
    """Bounded partition of the transposed core."""
    return from_core(k, conjugate(to_core(k, bounded)))


def dominates(left, right):
    """Whether left >= right in dominance order; sizes must agree."""
    left = _check_partition(left)
    right = _check_partition(right)
    if sum(left) != sum(right):
        raise SizeMismatch(f"|{left}| = {sum(left)} differs from |{right}| = {sum(right)}")
    total_l = total_r = 0
    for i in range(max(len(left), len(right))):
        total_l += left[i] if i < len(left) else 0
        total_r += right[i] if i < len(right) else 0
        if total_l < total_r:
            return False
    return True


def split_row_column_bound_check(k, mu_left, nu_right):
    """Row/column bound of a two-factor split.

    mu_left is the lower-left factor, nu_right the upper-right one; the split
    forces every column of mu_left's conjugate core plus every row of nu_right
    to reach past k, i.e. min part of the k-conjugate of mu_left plus min part
    of nu_right is at least k+1.
    """
    mu_left = _check_partition(mu_left)
    nu_right = _check_partition(nu_right)
    if not mu_left or not nu_right:
        raise ValueError("both factors must be nonempty")
    return min(k_conjugate_partition(k, mu_left)) + min(nu_right) >= k + 1


def grassmannian_word(k, bounded, direction="decreasing"):
    """Canonical word of the Grassmannian element for a k-bounded partition.

    Decreasing: fill the diagram with residue (column - row) mod k+1 and read
    rows from the top row down, right to left.  Increasing: fill the
    transposed k-conjugate the same way and read columns right to left, top
    cell (deepest row) first.
    """
    n = k + 1
    bounded = _check_partition(bounded)
    if any(p > k for p in bounded):
        raise ValueError(f"parts must be at most {k}: {bounded}")
    word = []
    if direction == "decreasing":
        for r in range(len(bounded), 0, -1):
            word.extend((c - r) % n for c in range(bounded[r - 1], 0, -1))
        return word
    if direction == "increasing":
        shape = conjugate(k_conjugate_partition(k, bounded))
        heights = conjugate(shape) if shape else ()
        for c in range(len(heights), 0, -1):
            word.extend((c - r) % n for r in range(heights[c - 1], 0, -1))
        return word
    raise ValueError(f"unknown direction {direction!r}")


def grassmannian_perm(k, bounded, direction="decreasing"):
    return AffinePermutation.from_word(k, grassmannian_word(k, bounded, direction))
