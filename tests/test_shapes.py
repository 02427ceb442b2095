import pytest

from affinecodes import AffinePermutation
from affinecodes.codes import rd
from affinecodes.shapes import (
    NotACore,
    SizeMismatch,
    conjugate,
    dominates,
    from_core,
    grassmannian_perm,
    grassmannian_word,
    hook,
    k_boundary,
    k_conjugate_partition,
    split_components,
    split_row_column_bound_check,
    to_core,
)
from goldens import (
    CORE_K3,
    CORE_K4,
    CORE_K4_SMALL,
    GRASS_LAMBDA,
    GRASS_RD,
    GRASS_WORD_DECREASING,
    GRASS_WORD_INCREASING,
    KCONJ_K3,
    KCONJ_K4_SMALL,
    SPLIT_K4_CORE,
    SPLIT_K4_FACTORS,
)
from oracles import bounded_partitions


def test_partition_validation():
    with pytest.raises(ValueError):
        conjugate((1, 2))
    with pytest.raises(ValueError):
        conjugate((2, 0))
    assert conjugate(()) == ()
    assert conjugate((3, 2, 2, 1, 1)) == (5, 3, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)


def test_hook():
    assert hook((3, 2), 1, 1) == 4
    assert hook((3, 2), 1, 3) == 1
    assert hook((3, 2), 2, 2) == 1


def test_core_goldens():
    for k, (bounded, core) in ((3, CORE_K3), (4, CORE_K4), (4, CORE_K4_SMALL)):
        assert to_core(k, bounded) == core
        assert from_core(k, core) == bounded


def test_core_round_trip_small():
    for k in range(2, 7):
        for size in range(1, 8):
            for lam in bounded_partitions(k, size):
                core = to_core(k, lam)
                assert from_core(k, core) == lam
                inner = k_boundary(k, core)
                padded = inner + (0,) * (len(core) - len(inner))
                assert tuple(c - i for c, i in zip(core, padded)) == lam


def test_large_k_cores_are_trivial():
    assert to_core(10, (3, 2)) == (3, 2)
    assert from_core(10, (3, 2)) == (3, 2)
    assert k_conjugate_partition(10, (3, 2)) == conjugate((3, 2))


def test_not_a_core():
    with pytest.raises(NotACore):
        from_core(3, (4,))
    with pytest.raises(NotACore):
        from_core(2, (2, 2))


def test_to_core_rejects_unbounded():
    with pytest.raises(ValueError):
        to_core(2, (3,))


def test_k_conjugate_goldens():
    assert k_conjugate_partition(3, KCONJ_K3[0]) == KCONJ_K3[1]
    assert k_conjugate_partition(4, KCONJ_K4_SMALL[0]) == KCONJ_K4_SMALL[1]


def test_k_conjugate_involution():
    for k in (2, 3, 4):
        for size in range(1, 8):
            for lam in bounded_partitions(k, size):
                conj = k_conjugate_partition(k, lam)
                assert sum(conj) == sum(lam)
                assert all(p <= k for p in conj)
                assert k_conjugate_partition(k, conj) == lam


def test_split_components_golden():
    parts = [from_core(4, c) for c in split_components(4, SPLIT_K4_CORE)]
    assert tuple(tuple(p) for p in parts) == SPLIT_K4_FACTORS


def test_split_components_unsplit():
    assert [from_core(3, c) for c in split_components(3, (2, 1))] == [(2, 1)]
    assert split_components(3, to_core(3, (1,))) == [(1,)]


def test_dominates():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 2))
    assert dominates((4,), (1, 1, 1, 1))
    with pytest.raises(SizeMismatch):
        dominates((2,), (1,))


def test_split_row_column_bound():
    assert split_row_column_bound_check(4, (1, 1, 1), (2, 2))
    assert split_row_column_bound_check(4, (2, 2), (3,))
    assert not split_row_column_bound_check(4, (1,), (1,))
    with pytest.raises(ValueError):
        split_row_column_bound_check(4, (), (1,))


def test_grassmannian_golden():
    assert grassmannian_word(3, GRASS_LAMBDA) == GRASS_WORD_DECREASING
    assert grassmannian_word(3, GRASS_LAMBDA, "increasing") == GRASS_WORD_INCREASING
    w = grassmannian_perm(3, GRASS_LAMBDA)
    assert w == grassmannian_perm(3, GRASS_LAMBDA, "increasing")
    assert rd(w) == GRASS_RD
    assert w.right_descents() == frozenset({0})
    assert w.length() == sum(GRASS_LAMBDA)
    with pytest.raises(ValueError):
        grassmannian_word(3, GRASS_LAMBDA, "sideways")
    with pytest.raises(ValueError):
        grassmannian_word(2, (3,))


def test_grassmannian_code_is_conjugate_shape():
    for k in (2, 3):
        n = k + 1
        for size in range(1, 7):
            for lam in bounded_partitions(k, size):
                w = grassmannian_perm(k, lam)
                assert w.right_descents() == frozenset({0})
                assert w.length() == size
                cols = conjugate(lam)
                assert rd(w) == cols + (0,) * (n - len(cols))
                assert grassmannian_perm(k, lam, "increasing") == w
