import hashlib
import random
from math import comb

import pytest

from affinecodes import AffinePermutation
from affinecodes.codes import canonical_decomposition, rd
from affinecodes.nilcox import (
    IndexTooLarge,
    NilCoxSum,
    NotFound,
    NotRotationInvariant,
    NotUnique,
    dominant_summand,
    e,
    e_lambda,
    h,
    h_lambda,
    is_left_compatible,
    k_schur,
    split_groupings,
    verify_split_product,
    weak_strip,
    weak_strips,
)
from affinecodes.nilcox import _MEMO, _expand_orbits, _h_times_orbits
from affinecodes.permutations import RankMismatch
from affinecodes.shapes import conjugate, grassmannian_perm, k_conjugate_partition
from goldens import GRASS_LAMBDA, KSCHUR_GOLDENS, S11_K2_WORDS, SPLIT_K4_FACTORS
from oracles import bfs_levels, bounded_partitions, nil_product, pieri_k_schur


def test_sum_arithmetic():
    a = h(2, 1)
    b = e(2, 2)
    assert (a + b) - b == a
    assert a - a == NilCoxSum(2)
    assert (a - a).is_zero()
    assert 3 * a == a + a + a
    assert -a == a * -1
    assert NilCoxSum.one(2) * a == a
    assert len(h(3, 2)) == comb(4, 2)
    with pytest.raises(RankMismatch):
        h(2, 1) + h(3, 1)
    with pytest.raises(RankMismatch):
        h(2, 1) * h(3, 1)
    with pytest.raises(RankMismatch):
        NilCoxSum(2, {AffinePermutation.identity(3): 1})


def test_generator_degrees():
    for k in (2, 3, 4):
        assert h(k, 0) == NilCoxSum.one(k)
        assert e(k, 0) == NilCoxSum.one(k)
        for i in range(1, k + 1):
            for total in (h(k, i), e(k, i)):
                assert len(total) == comb(k + 1, i)
                assert all(x.length() == i for x in total.support())
                assert all(c == 1 for c in total.terms().values())
        with pytest.raises(IndexTooLarge):
            h(k, k + 1)
        with pytest.raises(IndexTooLarge):
            e(k, -1)


def test_generators_commute():
    for k in (2, 3):
        gens = [h(k, i) for i in range(1, k + 1)] + [e(k, i) for i in range(1, k + 1)]
        for a in gens:
            for b in gens:
                assert a * b == b * a


def test_nil_product_kills_nonreduced():
    s0 = NilCoxSum(2, {AffinePermutation.from_word(2, [0]): 1})
    assert (s0 * s0).is_zero()


def test_single_row_and_column_sums():
    for k in (2, 3, 4):
        for m in range(1, k + 1):
            assert k_schur(k, (m,)) == h(k, m)
            assert k_schur(k, (1,) * m) == e(k, m)


def test_s11_golden():
    total = k_schur(2, (1, 1))
    expected = {AffinePermutation.from_word(2, w) for w in S11_K2_WORDS}
    assert set(total.support()) == expected
    assert all(total.coefficient(x) == 1 for x in expected)
    assert total == e(2, 2)


def test_weak_strip_examples():
    assert weak_strips(2, (1,), 1) == [(2,), (1, 1)]
    assert weak_strips(2, (2, 1), 2) == [(2, 2, 1)]
    assert weak_strips(3, (), 2) == [(2,)]
    assert weak_strips(2, (2, 1), 1) == [(2, 2), (2, 1, 1)]
    assert weak_strip(2, (1,), (2,))
    assert weak_strip(2, (1,), (1, 1))
    assert not weak_strip(2, (1,), (1, 1, 1))
    assert not weak_strip(2, (2,), (1,))
    with pytest.raises(ValueError):
        weak_strip(2, (3,), (3, 1))


def test_weak_strips_match_brute_force():
    for k in (2, 3):
        for inner_size in range(0, 4):
            for inner in bounded_partitions(k, inner_size):
                for size in range(1, k + 1):
                    found = weak_strips(k, inner, size)
                    assert found == sorted(found, reverse=True)
                    brute = sorted(
                        (
                            outer
                            for outer in bounded_partitions(k, inner_size + size)
                            if weak_strip(k, inner, outer)
                        ),
                        reverse=True,
                    )
                    assert found == brute


def test_h_pieri_rule():
    for k in (2, 3):
        table = {}
        for size in range(0, 5):
            for lam in bounded_partitions(k, size):
                for i in range(1, k + 1):
                    lhs = h(k, i) * k_schur(k, lam, table)
                    rhs = NilCoxSum(k)
                    for mu in weak_strips(k, lam, i):
                        rhs = rhs + k_schur(k, mu, table)
                    assert lhs == rhs, (k, lam, i)


def test_e_pieri_rule_via_conjugate():
    for k in (2, 3):
        table = {}
        for size in range(0, 5):
            for lam in bounded_partitions(k, size):
                for i in range(1, k + 1):
                    lhs = e(k, i) * k_schur(k, lam, table)
                    rhs = NilCoxSum(k)
                    for nu in weak_strips(k, k_conjugate_partition(k, lam), i):
                        rhs = rhs + k_schur(k, k_conjugate_partition(k, nu), table)
                    assert lhs == rhs, (k, lam, i)


def test_coefficient_one_at_canonical_shape():
    for k in (2, 3):
        for lvl in bfs_levels(k, 5):
            for x in lvl:
                if x.is_identity():
                    continue
                rows = tuple(len(r) for r in canonical_decomposition(x).rows)
                assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))
                assert h_lambda(k, rows).coefficient(x) == 1


def test_h_lambda_order_irrelevant():
    assert h_lambda(3, (3, 2, 2)) == h(3, 2) * h(3, 2) * h(3, 3)
    assert e_lambda(2, (2, 1)) == e(2, 1) * e(2, 2)


def test_dominant_summand():
    for k, lam in ((2, (2, 1)), (3, (2, 2, 1)), (3, GRASS_LAMBDA)):
        total = k_schur(k, lam)
        x = dominant_summand(total)
        assert x == grassmannian_perm(k, lam)
        assert total.coefficient(x) == 1
        cols = conjugate(lam)
        assert rd(x) == cols + (0,) * (k + 1 - len(cols))
    with pytest.raises(NotFound):
        dominant_summand(NilCoxSum(2, {AffinePermutation.from_word(2, [1]): 1}))
    with pytest.raises(NotUnique):
        dominant_summand(NilCoxSum.one(2) + h(2, 1))


def test_left_compatibility():
    x = AffinePermutation.from_word(2, [2])
    y = AffinePermutation.from_word(2, [0, 1])
    assert is_left_compatible(x, y)
    s0 = AffinePermutation.from_word(2, [0])
    assert not is_left_compatible(s0, s0)
    assert is_left_compatible(AffinePermutation.identity(2), y)


def test_left_compatible_factors_give_weak_strips():
    from itertools import combinations

    from affinecodes.cyclic import d_element

    for k in (2, 3):
        n = k + 1
        for lam_size in range(1, 5):
            for lam in bounded_partitions(k, lam_size):
                w = grassmannian_perm(k, lam)
                for i in range(1, k + 1):
                    shapes = set()
                    for a in combinations(range(n), i):
                        d = d_element(k, frozenset(a))
                        if not is_left_compatible(d, w):
                            continue
                        z = d * w
                        assert z.right_descents() <= {0}
                        code = rd(z)
                        mu = conjugate(tuple(sorted((c for c in code if c), reverse=True)))
                        assert weak_strip(k, lam, mu), (k, lam, a, mu)
                        shapes.add(mu)
                    assert shapes == set(weak_strips(k, lam, i))


def test_split_groupings():
    groupings = list(split_groupings(4, (3, 2, 2, 1, 1, 1)))
    assert len(groupings) == 4
    assert ((3, 2, 2, 1, 1, 1),) in groupings
    assert SPLIT_K4_FACTORS in groupings
    assert list(split_groupings(3, (2, 1))) == [((2, 1),)]
    assert list(split_groupings(2, ())) == [()]


def test_verify_split_product_golden():
    factors, results = verify_split_product(4, (3, 2, 2, 1, 1, 1))
    assert factors == SPLIT_K4_FACTORS
    assert len(results) == 4
    assert all(matched for _, matched in results)


def test_verify_split_product_small():
    factors, results = verify_split_product(2, (2, 1))
    assert factors == ((1,), (2,))
    assert len(results) == 2
    assert all(matched for _, matched in results)

    factors, results = verify_split_product(3, (2, 1))
    assert factors == ((2, 1),)
    assert results == [(((2, 1),), True)]


def _word_sum(k, words_and_coefficients):
    return NilCoxSum(
        k, {AffinePermutation.from_word(k, w): c for w, c in words_and_coefficients}
    )


def _random_sum(rng, k, pool, size):
    return NilCoxSum(k, {x: rng.choice((-2, -1, 1, 2)) for x in rng.sample(pool, size)})


def _cancelling_pair(k):
    """Two sums whose product has surviving pairs that cancel to zero."""
    if k == 1:
        # s0 s1 s0 - s0 s1 s0; the cross terms s0 s0 and s0 s1 s1 s0 vanish
        return _word_sum(k, [([0], 1), ([0, 1], -1)]), _word_sum(k, [([1, 0], 1), ([0], 1)])
    # the braid relation s0 s1 s0 = s1 s0 s1 cancels the two survivors
    return _word_sum(k, [([0, 1], 1), ([1, 0], -1)]), _word_sum(k, [([0], 1), ([1], 1)])


def _product_cases(k):
    """h x k-Schur, e x h, k-Schur x k-Schur, signed random sums, and unit and
    empty factors, as (left, right) pairs."""
    table = {}
    small = [lam for size in range(1, 4) for lam in bounded_partitions(k, size)]
    for i in range(k + 1):
        for lam in small:
            yield h(k, i), k_schur(k, lam, table)
        for j in range(k + 1):
            yield e(k, i), h(k, j)
    # left factors longer than k, so their reduced words exceed one cycle
    for lam in bounded_partitions(k, k + 1):
        for mu in small[:4]:
            yield k_schur(k, lam, table), k_schur(k, mu, table)
    rng = random.Random(f"nil_product/{k}")
    pool = sorted(set().union(*bfs_levels(k, 5)), key=lambda x: x.window)
    for _ in range(25):
        yield _random_sum(rng, k, pool, 6), _random_sum(rng, k, pool, 6)
    a = _random_sum(rng, k, pool, 6)
    yield NilCoxSum.one(k), a
    yield a, NilCoxSum.one(k)
    yield NilCoxSum(k), a
    yield a, NilCoxSum(k)
    yield NilCoxSum(k), NilCoxSum(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_product_matches_window_composition_oracle(k):
    for a, b in _product_cases(k):
        assert a * b == nil_product(a, b), (k, a, b)
    a, b = _cancelling_pair(k)
    survivors = NilCoxSum(k, {x: 1 for x in a.terms()}) * NilCoxSum(k, {y: 1 for y in b.terms()})
    assert not survivors.is_zero()
    assert (a * b).is_zero() and nil_product(a, b).is_zero()


def test_k_schur_exactness_goldens():
    for (k, parts), (count, coefficients, fingerprint) in KSCHUR_GOLDENS.items():
        total = k_schur(k, parts)
        pairs = sorted((x.window, c) for x, c in total.terms().items())
        assert len(pairs) == count
        assert {c for _, c in pairs} == coefficients
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == fingerprint


def _rotated(total):
    return NilCoxSum(total.k, {x.dynkin_rotate(): c for x, c in total.terms().items()})


def test_orbit_route_matches_pieri_oracle():
    for k in (1, 2, 3, 4):
        table, oracle_table = {}, {}
        for size in range(0, 8):
            for lam in bounded_partitions(k, size):
                total = k_schur(k, lam, table)
                assert total == pieri_k_schur(k, lam, oracle_table), (k, lam)
                assert _rotated(total) == total, (k, lam)
                assert min(total.terms().values()) > 0, (k, lam)


def test_orbit_step_matches_full_product():
    for k in (1, 2, 3):
        table = {}
        for size in range(0, 5):
            for lam in bounded_partitions(k, size):
                total = k_schur(k, lam, table)
                orbits = table[_MEMO].orbits[lam]
                assert _expand_orbits(k, orbits) == total
                for i in range(k + 1):
                    product = _expand_orbits(k, _h_times_orbits(k, i, orbits))
                    assert product == h(k, i) * total, (k, lam, i)


def test_orbit_step_rejects_non_invariant_input():
    # s_1 alone, passed off as a one-element orbit; its orbit has 4 elements
    s1 = (2, 1, 3, 4)
    for i in (0, 1):
        with pytest.raises(NotRotationInvariant):
            _h_times_orbits(3, i, {s1: (1, 1)})
    # the whole orbit s_0 + s_1 + s_2 + s_3 is invariant
    assert _expand_orbits(3, _h_times_orbits(3, 1, {s1: (1, 4)})) == h(3, 1) * h(3, 1)


def test_k_schur_table_holds_each_requested_sum():
    table = {}
    total = k_schur(3, (2, 2, 1), table)
    assert isinstance(table[(2, 2, 1)], NilCoxSum)
    assert table[(2, 2, 1)] is total
    assert k_schur(3, (2, 2, 1), table) is total
    assert (2, 2) not in table
    assert k_schur(3, (2, 2), table) == k_schur(3, (2, 2))
    table = {}
    _, results = verify_split_product(4, (3, 2, 2, 1, 1, 1), table)
    assert table[(3, 2, 2, 1, 1, 1)] == k_schur(4, (3, 2, 2, 1, 1, 1))
    for blocks, _ in results:
        for block in blocks:
            assert isinstance(table[block], NilCoxSum)
