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

The Dynkin rotation rho: i -> i + 1 sends each d_A to d_{A+1}, so every h_i,
and every s_lambda, is rho-invariant (Lam 2006).  k_schur therefore runs the
recursion on orbit tables: one entry per rho-orbit, keyed by the least
rotation of the orbit's inverse windows (a tuple), holding the coefficient
and the orbit size.  rho acts on inverse windows as on windows, by
(w[-1] - n + 1, w[0] + 1, ..., w[n - 2] + 1).  Each Pieri step lets the
reduced words of h_i, built once per (k, i), act on the representatives
only, and divides each orbit's total by its size.  Orbits are expanded, and
windows inverted, only when k_schur returns its NilCoxSum.
"""

from __future__ import annotations

from itertools import combinations

from .cyclic import d_element, d_word, u_element
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


class NotRotationInvariant(ValueError):
    """An orbit total that the orbit's size does not divide: the sum fed to
    the orbit step was not invariant under the Dynkin rotation."""


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
        lefts = [(_peeled_word(x.window), cx) for x, cx in self._terms.items()]
        rights = [(_inverse_window(y.window), cy) for y, cy in other._terms.items()]
        out = {}
        for cx, cy, w in _surviving_pairs(k + 1, lefts, rights):
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


def _surviving_pairs(n, lefts, rights):
    """Yield (left coefficient, right coefficient, inverse window of the
    product) for every pair that survives the nil product.

    lefts holds (reduced word, last letter first; coefficient) pairs, rights
    (inverse window; coefficient) pairs.  The yielded window is a fresh list.
    """
    last = n - 1
    for word, cx in lefts:
        for inv, cy in rights:
            w = list(inv)
            for i in word:
                if i:
                    a, b = w[i - 1], w[i]
                    if a > b:
                        break
                    w[i - 1], w[i] = b, a
                else:
                    a, b = w[last] - n, w[0]
                    if a > b:
                        break
                    w[0], w[last] = a, b + n
            else:
                yield cx, cy, w


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


def _is_weak_strip(inner, outer, ci, co):
    """weak_strip, given the k-conjugates ci of inner and co of outer."""
    for i in range(max(len(inner), len(outer))):
        lo = inner[i] if i < len(inner) else 0
        hi = outer[i] if i < len(outer) else 0
        if hi < lo:
            return False
        if i + 1 < len(outer) and outer[i + 1] > lo:
            return False
    for i in range(max(len(ci), len(co))):
        lo = ci[i] if i < len(ci) else 0
        hi = co[i] if i < len(co) else 0
        if not 0 <= hi - lo <= 1:
            return False
    return True


def weak_strip(k, inner, outer):
    """Whether outer/inner adds at most one cell per column, and the
    k-conjugates at most one cell per row."""
    inner = _check_partition(inner)
    outer = _check_partition(outer)
    if any(p > k for p in inner) or any(p > k for p in outer):
        raise ValueError("parts must be at most k")
    return _is_weak_strip(
        inner, outer, k_conjugate_partition(k, inner), k_conjugate_partition(k, outer)
    )


def weak_strips(k, inner, size, conjugates=None):
    """All bounded partitions outer with outer/inner a weak strip of the
    given size, sorted for determinism.

    conjugates, when given, is a dict from partitions to their k-conjugates
    that is read first and filled with every k-conjugate computed.
    """
    inner = _check_partition(inner)
    if conjugates is None:
        conjugates = {}
    rows = len(inner) + 1
    candidates = []

    def rec(i, prev, remaining, acc):
        if i == rows:
            if remaining == 0:
                candidates.append(tuple(p for p in acc if p > 0))
            return
        lo = inner[i] if i < len(inner) else 0
        hi = min(prev, k)
        if i > 0:
            hi = min(hi, inner[i - 1] if i - 1 < len(inner) else 0)
        for v in range(lo, hi + 1):
            if v - lo <= remaining:
                rec(i + 1, v, remaining - (v - lo), acc + [v])

    def conjugate_of(parts):
        found = conjugates.get(parts)
        if found is None:
            found = conjugates[parts] = k_conjugate_partition(k, parts)
        return found

    rec(0, k, size, [])
    if not candidates:
        return []
    ci = conjugate_of(inner)
    found = [
        outer for outer in candidates
        if _is_weak_strip(inner, outer, ci, conjugate_of(outer))
    ]
    return sorted(found, reverse=True)


def k_schur(k, parts, table=None):
    """Bounded-partition sum by the triangular h recursion, on rotation orbits.

    The recursion keeps one entry per orbit of the Dynkin rotation (see
    _k_schur_orbits); the orbits are expanded into a NilCoxSum only here.
    Shared across calls when the same table dict is passed in: afterwards
    table[parts] is the returned sum, and the table also holds, under a key
    that is not a partition, the orbit tables and k-conjugates of every
    shape the recursion met.  A table serves one rank k.
    """
    parts = _check_partition(parts)
    if any(p > k for p in parts):
        raise ValueError(f"parts must be at most {k}: {parts}")
    if table is None:
        table = {}
    total = table.get(parts)
    if total is None:
        memo = table.get(_MEMO)
        if memo is None:
            memo = table[_MEMO] = _PieriMemo()
        total = table[parts] = _expand_orbits(k, _k_schur_orbits(k, parts, memo))
    return total


class _PieriMemo:
    """What a k_schur table keeps besides its partition entries."""

    __slots__ = ("orbits", "conjugates")

    def __init__(self):
        self.orbits = {}  # partition -> orbit table, or _PENDING while computed
        self.conjugates = {}  # partition -> its k-conjugate


_MEMO = ("k_schur memo",)
_PENDING = object()

# The reduced words of the terms of h(k, i), last letter first, by (k, i).
_H_WORDS = {}


def _h_words(k, i):
    words = _H_WORDS.get((k, i))
    if words is None:
        words = _H_WORDS[(k, i)] = tuple(
            tuple(reversed(d_word(k, a))) for a in combinations(range(k + 1), i)
        )
    return words


def _rotate(w, n, p):
    """The rotation of a window or inverse window w that starts at entry p.

    The rotation rho: i -> i + 1 takes w to (w[-1] - n + 1, w[0] + 1, ...,
    w[n - 2] + 1), the rotation starting at entry n - 1; starting at entry p
    is rho applied n - p times.
    """
    return tuple([v - p for v in w[p:]] + [v + n - p for v in w[:p]])


def _least_rotation(w, n):
    """(least rotation, orbit size) of the inverse window w.

    The rotation starting at entry p starts with w[p] - p, so only those
    with the least w[p] - p can be least.  The rotations equal to the least
    one number |stabiliser|, and the orbit has n / |stabiliser| elements.
    """
    firsts = [v - p for p, v in enumerate(w)]
    first = min(firsts)
    if firsts.count(first) == 1:
        return _rotate(w, n, firsts.index(first)), n
    rotations = [_rotate(w, n, p) for p, f in enumerate(firsts) if f == first]
    least = min(rotations)
    return least, n // rotations.count(least)


def _h_times_orbits(k, i, orbits):
    """h(k, i) times a rotation-invariant sum, both given as orbit tables.

    An orbit table maps the least rotation of the inverse windows in each
    orbit to (coefficient, orbit size).  With y_O the representative of
    orbit O and c_O its coefficient, let T = h(k, i) * sum_O c_O |O| y_O.
    Since h(k, i) is invariant too, the coefficient of each term of an orbit
    Z in the product is the sum of T's coefficients over Z, divided by |Z|.
    So only the representatives are multiplied.  Raises NotRotationInvariant
    when a division leaves a remainder, which an invariant input never does.
    """
    n = k + 1
    weighted = [(inv, c * size) for inv, (c, size) in orbits.items()]
    totals = {}
    for _, weight, w in _surviving_pairs(n, [(word, 1) for word in _h_words(k, i)], weighted):
        z = tuple(w)
        totals[z] = totals.get(z, 0) + weight
    sums = {}
    sizes = {}
    for z, total in totals.items():
        rep, sizes[rep] = _least_rotation(z, n)
        sums[rep] = sums.get(rep, 0) + total
    out = {}
    for rep, total in sums.items():
        c, remainder = divmod(total, sizes[rep])
        if remainder:
            raise NotRotationInvariant(
                f"orbit of {rep} has {sizes[rep]} elements and total {total}"
            )
        if c:
            out[rep] = (c, sizes[rep])
    return out


def _k_schur_orbits(k, parts, memo):
    """Orbit table of the sum for parts: h of the smallest part times the sum
    for the other parts, less the sums of the other weak strips."""
    orbits = memo.orbits
    cached = orbits.get(parts)
    if cached is _PENDING:
        raise RuntimeError(f"recursion cycle at {parts}")
    if cached is not None:
        return cached
    if not parts:
        out = orbits[parts] = {tuple(range(1, k + 2)): (1, 1)}
        return out
    orbits[parts] = _PENDING
    small = parts[-1]
    rest = parts[:-1]
    out = _h_times_orbits(k, small, _k_schur_orbits(k, rest, memo))
    strips = weak_strips(k, rest, small, memo.conjugates)
    assert parts in strips, "target shape must be a strip over its own base"
    for nu in strips:
        if nu == parts:
            continue
        assert dominates(nu, parts), "correction terms sit strictly above"
        for rep, (c, size) in _k_schur_orbits(k, nu, memo).items():
            left = out.get(rep, (0, size))[0] - c
            if left:
                out[rep] = (left, size)
            else:
                del out[rep]
    orbits[parts] = out
    return out


def _expand_orbits(k, orbits):
    """The NilCoxSum with every rotation of every representative.

    The rotation commutes with inversion, so each representative is
    inverted once and its window rotated.
    """
    n = k + 1
    terms = {}
    for rep, (c, size) in orbits.items():
        window = _inverse_window(rep)
        for p in range(size):
            terms[AffinePermutation(k, _rotate(window, n, p))] = c
    return NilCoxSum(k, terms)


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
