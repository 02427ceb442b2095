"""Formal sums over affine permutations with the nil product.

The product of two basis elements is their composite when lengths add and
zero otherwise, extended bilinearly.  It is computed as a left action: the
letters of a reduced word of the left element multiply the right element one
at a time, last letter first, and the product vanishes as soon as a letter is
a left descent of what it meets.  On inverse windows a left descent is a
right descent, which costs one comparison of two window entries, so no
length is ever computed.  Summing the cyclically decreasing
elements d_A over all size-i subsets gives h_i; the increasing u_B give e_i.
The h_i commute (as do the e_i, and each h with each e), so monomials
h_lambda make sense, and bounded-partition sums s_lambda are carved out of
them by a triangular recursion: multiply by h of the smallest part and
subtract the other sums indexed by weak strips, which all sit strictly higher
in dominance order.
"""

from __future__ import annotations

from itertools import combinations

from .cyclic import d_element, u_element
from .permutations import (
    AffinePermutation,
    RankMismatch,
    _inverse_window,
    _peeled_word,
)
from .shapes import (
    _check_partition,
    conjugate,
    dominates,
    from_core,
    k_conjugate_partition,
    split_components,
    to_core,
)


class IndexTooLarge(ValueError):
    """h_i and e_i vanish beyond degree k; asking for them is an error."""


class NotFound(ValueError):
    """No summand with all right descents at 0."""


class NotUnique(ValueError):
    """Several summands with all right descents at 0."""


class NilCoxSum:
    """Integer combination of affine permutations of one rank."""

    __slots__ = ("k", "_terms")

    def __init__(self, k, terms=None):
        self.k = k
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for x, c in items:
                if x.k != k:
                    raise RankMismatch(f"rank {x.k} term in rank {k} sum")
                if c:
                    clean[x] = clean.get(x, 0) + c
        self._terms = {x: c for x, c in clean.items() if c}

    @classmethod
    def one(cls, k):
        return cls(k, {AffinePermutation.identity(k): 1})

    def terms(self):
        return dict(self._terms)

    def support(self):
        return sorted(self._terms, key=lambda x: (x.length(), x.window))

    def coefficient(self, x):
        return self._terms.get(x, 0)

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, NilCoxSum):
            return NotImplemented
        if other.k != self.k:
            raise RankMismatch(f"rank {other.k} sum added to rank {self.k}")
        merged = dict(self._terms)
        for x, c in other._terms.items():
            merged[x] = merged.get(x, 0) + c
        return NilCoxSum(self.k, merged)

    def __sub__(self, other):
        if not isinstance(other, NilCoxSum):
            return NotImplemented
        if other.k != self.k:
            raise RankMismatch(f"rank {other.k} sum subtracted from rank {self.k}")
        merged = dict(self._terms)
        for x, c in other._terms.items():
            merged[x] = merged.get(x, 0) - c
        return NilCoxSum(self.k, merged)

    def __mul__(self, other):
        """Scale by an integer, or take the nil product of two sums.

        The product acts on the left: a reduced word s_{a_1} ... s_{a_m} of a
        left term x multiplies a right term y letter by letter, s_{a_m}
        first, and x*y vanishes as soon as a letter is a left descent of what
        it meets.  A left descent of z is a right descent of z^-1, so the
        letters act as right multiplications on a copy of y's inverse window,
        each one an O(1) compare and swap; a surviving window is inverted
        back to x*y.
        """
        if isinstance(other, int):
            return NilCoxSum(self.k, {x: c * other for x, c in self._terms.items()})
        if not isinstance(other, NilCoxSum):
            return NotImplemented
        if other.k != self.k:
            raise RankMismatch(f"rank {other.k} sum multiplied into rank {self.k}")
        k = self.k
        n = k + 1
        lefts = [(_peeled_word(x.window), cx) for x, cx in self._terms.items()]
        rights = [(_inverse_window(y.window), cy) for y, cy in other._terms.items()]
        out = {}
        for word, cx in lefts:
            for inv, cy in rights:
                w = inv[:]
                for i in word:
                    if i:
                        a, b = w[i - 1], w[i]
                        if a > b:
                            break
                        w[i - 1], w[i] = b, a
                    else:
                        a, b = w[n - 1] - n, w[0]
                        if a > b:
                            break
                        w[0], w[n - 1] = a, b + n
                else:
                    z = AffinePermutation(k, _inverse_window(w))
                    out[z] = out.get(z, 0) + cx * cy
        return NilCoxSum(k, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __neg__(self):
        return self * -1

    def __eq__(self, other):
        if not isinstance(other, NilCoxSum):
            return NotImplemented
        return self.k == other.k and self._terms == other._terms

    def __hash__(self):
        return hash((self.k, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return f"NilCoxSum({self.k}, 0)"
        bits = []
        for x in self.support():
            c = self._terms[x]
            bits.append(f"{c}*{x.window}" if c != 1 else f"{x.window}")
        return f"NilCoxSum({self.k}, " + " + ".join(bits) + ")"


def h(k, i):
    """Sum of all cyclically decreasing elements on i residues."""
    if not 0 <= i <= k:
        raise IndexTooLarge(f"degree {i} out of range 0..{k}")
    n = k + 1
    return NilCoxSum(k, {d_element(k, frozenset(a)): 1 for a in combinations(range(n), i)})


def e(k, i):
    """Sum of all cyclically increasing elements on i residues."""
    if not 0 <= i <= k:
        raise IndexTooLarge(f"degree {i} out of range 0..{k}")
    n = k + 1
    return NilCoxSum(k, {u_element(k, frozenset(b)): 1 for b in combinations(range(n), i)})


def h_lambda(k, parts):
    """Product of h over the parts."""
    parts = _check_partition(parts)
    out = NilCoxSum.one(k)
    for p in parts:
        out = out * h(k, p)
    return out


def e_lambda(k, parts):
    parts = _check_partition(parts)
    out = NilCoxSum.one(k)
    for p in parts:
        out = out * e(k, p)
    return out


def weak_strip(k, inner, outer):
    """Whether outer/inner adds at most one cell per column, and the
    k-conjugates at most one cell per row."""
    inner = _check_partition(inner)
    outer = _check_partition(outer)
    if any(p > k for p in inner) or any(p > k for p in outer):
        raise ValueError("parts must be at most k")
    for i in range(max(len(inner), len(outer))):
        lo = inner[i] if i < len(inner) else 0
        hi = outer[i] if i < len(outer) else 0
        if hi < lo:
            return False
        if i + 1 < len(outer) and outer[i + 1] > lo:
            return False
    ci = k_conjugate_partition(k, inner)
    co = k_conjugate_partition(k, outer)
    for i in range(max(len(ci), len(co))):
        lo = ci[i] if i < len(ci) else 0
        hi = co[i] if i < len(co) else 0
        if not 0 <= hi - lo <= 1:
            return False
    return True


def weak_strips(k, inner, size):
    """All bounded partitions outer with outer/inner a weak strip of the
    given size, sorted for determinism."""
    inner = _check_partition(inner)
    rows = len(inner) + 1
    found = []

    def rec(i, prev, remaining, acc):
        if i == rows:
            if remaining == 0:
                outer = tuple(p for p in acc if p > 0)
                if weak_strip(k, inner, outer):
                    found.append(outer)
            return
        lo = inner[i] if i < len(inner) else 0
        hi = min(prev, k)
        if i > 0:
            hi = min(hi, inner[i - 1] if i - 1 < len(inner) else 0)
        for v in range(lo, hi + 1):
            if v - lo <= remaining:
                rec(i + 1, v, remaining - (v - lo), acc + [v])

    rec(0, k, size, [])
    return sorted(found, reverse=True)


def k_schur(k, parts, table=None):
    """Bounded-partition sum by the triangular h recursion.

    Shared across calls when the same table dict is passed in.
    """
    parts = _check_partition(parts)
    if any(p > k for p in parts):
        raise ValueError(f"parts must be at most {k}: {parts}")
    if table is None:
        table = {}
    return _k_schur(k, parts, table)


_PENDING = object()


def _k_schur(k, parts, table):
    if parts in table:
        cached = table[parts]
        if cached is _PENDING:
            raise RuntimeError(f"recursion cycle at {parts}")
        return cached
    if not parts:
        out = NilCoxSum.one(k)
        table[parts] = out
        return out
    table[parts] = _PENDING
    small = parts[-1]
    rest = parts[:-1]
    # the product is a fresh sum, so its dict can take the corrections
    terms = (h(k, small) * _k_schur(k, rest, table))._terms
    strips = weak_strips(k, rest, small)
    assert parts in strips, "target shape must be a strip over its own base"
    for nu in strips:
        if nu == parts:
            continue
        assert dominates(nu, parts), "correction terms sit strictly above"
        for x, c in _k_schur(k, nu, table)._terms.items():
            terms[x] = terms.get(x, 0) - c
    out = NilCoxSum(k, terms)
    table[parts] = out
    return out


def dominant_summand(total):
    """The unique summand with all right descents at 0."""
    hits = [x for x in total.terms() if x.right_descents() <= {0}]
    if not hits:
        raise NotFound("no summand with descents only at 0")
    if len(hits) > 1:
        raise NotUnique(f"{len(hits)} summands with descents only at 0")
    return hits[0]


def is_left_compatible(x, y):
    """Left factor that neither kills the product nor moves its right
    descents."""
    z = x * y
    if z.length() != x.length() + y.length():
        return False
    return z.right_descents() == y.right_descents()


def _split_factors(k, parts):
    """Bounded partitions of the split components of parts' core, bottom first."""
    comps = split_components(k, to_core(k, parts)) if parts else []
    return tuple(from_core(k, c) for c in comps)


def _groupings(factors):
    """The groupings of split_groupings, given the split factors."""
    m = len(factors)
    if m == 0:
        yield ()
        return
    for cuts in range(1 << (m - 1)):
        blocks = []
        current = list(factors[0])
        for i in range(1, m):
            if cuts & (1 << (i - 1)):
                blocks.append(tuple(current))
                current = list(factors[i])
            else:
                # stack the next (upper) factor's rows on top
                current = list(factors[i]) + current
        blocks.append(tuple(current))
        yield tuple(blocks)


def split_groupings(k, parts):
    """Contiguous merges of the split factors of the core of parts.

    Factors come bottom block first; each grouping merges consecutive factors
    by stacking their rows.  Returns a generator of one tuple of bounded
    partitions per grouping, 2**(m-1) in all.
    """
    return _groupings(_split_factors(k, _check_partition(parts)))


def verify_split_product(k, parts, table=None):
    """Compare the sum for parts against every grouped product of its split
    factors.  Returns (factors, results) with one (grouping, matched) pair
    per grouping."""
    parts = _check_partition(parts)
    if table is None:
        table = {}
    target = k_schur(k, parts, table)
    factors = _split_factors(k, parts)
    results = []
    for blocks in _groupings(factors):
        prod = NilCoxSum.one(k)
        for block in blocks:
            prod = prod * k_schur(k, block, table)
        results.append((blocks, prod == target))
    return factors, results
