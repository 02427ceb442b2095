from functools import lru_cache
from itertools import combinations, product

import pytest

from affinecodes import AffinePermutation, LetterOutOfRange, RankTooSmall
from affinecodes.codes import (
    DECREASING,
    INCREASING,
    ZERO,
    CyclicDecomposition,
    IdentityInput,
    NotACode,
    NotContained,
    NotMaximal,
    affine_code,
    canonical_decomposition,
    code_descents,
    code_to_permutation,
    is_horizontal_strip,
    is_vertical_strip,
    k_conjugate_perm,
    ld,
    li,
    mirror_code,
    rd,
    ri,
    two_row_maximize,
)
from affinecodes.shapes import grassmannian_perm, k_conjugate_partition
from goldens import (
    GRASS_LAMBDA,
    K3_CONJ_RD,
    K3_CONJ_WINDOW,
    K3_LD,
    K3_LI,
    K3_RD,
    K3_RD_ROWS,
    K3_RI,
    K3_RI_ROWS,
    K3_WINDOW,
    K7_DR,
    K7_FACTORS,
    K7_STEP_WINDOWS,
    K7_WINDOW,
    K9_A,
    K9_A_NEW,
    K9_B,
    K9_B_NEW,
    K9_CODE,
    K9_WINDOW,
    K9_WORD_CUT3,
    K9_WORD_CUT6,
)
from oracles import bfs_levels, max_right_set, peeled_decomposition, window_code


def golden():
    return AffinePermutation.from_window(K3_WINDOW)


def fall_descents(code):
    n = len(code)
    return frozenset(i for i in range(n) if code[i] > code[(i + 1) % n])


def test_four_codes_golden():
    x = golden()
    assert rd(x) == K3_RD
    assert ri(x) == K3_RI
    assert ld(x) == K3_LD
    assert li(x) == K3_LI
    for variant, expected in (("rd", K3_RD), ("ri", K3_RI), ("ld", K3_LD), ("li", K3_LI)):
        assert affine_code(x, variant) == expected
    with pytest.raises(ValueError):
        affine_code(x, "rr")


def test_decomposition_rows_golden():
    x = golden()
    dec = canonical_decomposition(x, DECREASING, "right")
    assert dec.rows == K3_RD_ROWS
    assert dec.element() == x
    assert dec.code() == K3_RD
    inc = canonical_decomposition(x, INCREASING, "right")
    assert inc.rows == K3_RI_ROWS
    assert inc.element() == x
    assert inc.code() == K3_RI


def test_left_decompositions_rebuild():
    x = golden()
    for direction, expected in ((DECREASING, K3_LD), (INCREASING, K3_LI)):
        dec = canonical_decomposition(x, direction, "left")
        assert dec.side == "left"
        assert dec.element() == x
        assert dec.code() == expected


def test_rank7_decomposition():
    x = AffinePermutation.from_window(K7_WINDOW)
    assert x.length() == 16
    assert x.right_descents() == K7_DR
    dec = canonical_decomposition(x)
    assert dec.rows == K7_FACTORS
    for m, window in enumerate(K7_STEP_WINDOWS, start=1):
        rest = CyclicDecomposition(7, K7_FACTORS[m:], DECREASING, "right")
        assert rest.element().window == window


def test_code_of_rejects_nonmaximal_rows():
    rows = (frozenset({0}), frozenset({0}))
    with pytest.raises(NotMaximal):
        CyclicDecomposition(3, rows, DECREASING, "right").code()
    rows = (frozenset({2}), frozenset({1}))
    with pytest.raises(NotMaximal):
        CyclicDecomposition(3, rows, INCREASING, "right").code()
    # Left rows are checked reversed, against the opposite direction.
    rows = (frozenset({1}), frozenset({0, 1}))
    assert CyclicDecomposition(3, rows, DECREASING, "left").code() == (2, 1, 0, 0)
    with pytest.raises(NotMaximal):
        CyclicDecomposition(3, rows[::-1], DECREASING, "left").code()


def test_code_of_rejects_residues_out_of_range():
    for row in ({4}, {0, 4}, {-1}):
        for side in ("right", "left"):
            decomp = CyclicDecomposition(3, (frozenset(row),), DECREASING, side)
            with pytest.raises(LetterOutOfRange):
                decomp.code()


def test_two_row_maximize_golden():
    assert two_row_maximize(9, K9_B, K9_A) == (K9_B_NEW, K9_A_NEW)
    assert two_row_maximize(2, {0, 1}, {0, 1}) is ZERO


def test_two_row_maximize_rejects_identity():
    with pytest.raises(IdentityInput):
        two_row_maximize(3, set(), set())


def test_two_row_maximize_exhaustive_small():
    for k in (2, 3):
        n = k + 1
        subsets = [
            frozenset(c)
            for size in range(1, n)
            for c in combinations(range(n), size)
        ]
        for b, a in product(subsets, subsets):
            result = two_row_maximize(k, b, a)
            dec = CyclicDecomposition(k, (a, b), DECREASING, "right")
            x = AffinePermutation.from_word(k, dec.word())
            if result is ZERO:
                assert x.length() < len(a) + len(b)
                continue
            b_new, a_new = result
            assert len(b_new) + len(a_new) == len(a) + len(b)
            assert a_new == max_right_set(x)
            rebuilt = CyclicDecomposition(k, (a_new, b_new) if b_new else (a_new,),
                                          DECREASING, "right")
            assert rebuilt.element() == x


def test_code_to_permutation_golden():
    assert code_to_permutation(K3_RD) == golden()
    with pytest.raises(NotACode):
        code_to_permutation((1, 2, 1))
    with pytest.raises(NotACode):
        code_to_permutation((-1, 0, 1))
    for code in ((), (0,)):
        with pytest.raises(RankTooSmall):
            code_to_permutation(code)


def test_flattenings_agree():
    x = code_to_permutation(K9_CODE)
    assert x.window == K9_WINDOW
    assert x == AffinePermutation.from_word(9, K9_WORD_CUT3)
    assert x == AffinePermutation.from_word(9, K9_WORD_CUT6)
    assert rd(x) == K9_CODE


@lru_cache(maxsize=None)
def _enum(k, bound):
    return [x for lvl in bfs_levels(k, bound) for x in lvl if not x.is_identity()]


def _sweep():
    return _enum(2, 6) + _enum(3, 5)


def test_code_round_trips():
    for x in _sweep():
        code = rd(x)
        assert code_to_permutation(code) == x
        assert rd(code_to_permutation(code)) == code


def test_code_basics():
    for x in _sweep():
        for c in (rd(x), ri(x), ld(x), li(x)):
            assert min(c) == 0
            assert sum(c) == x.length()


def test_descent_reading_rules():
    for x in _sweep():
        right = x.right_descents()
        left = x.left_descents()
        assert code_descents(rd(x)) == right
        assert fall_descents(ri(x)) == right
        assert fall_descents(ld(x)) == left
        assert code_descents(li(x)) == left


def test_left_codes_permute_right_columns():
    for x in _sweep():
        assert sorted(ld(x)) == sorted(rd(x))
        assert sorted(li(x)) == sorted(ri(x))


def test_inverse_duality():
    for x in _sweep():
        assert ld(x) == ri(x.inverse())
        assert li(x) == rd(x.inverse())


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("direction", [DECREASING, INCREASING])
def test_code_rows_match_peeled_rows(direction, side):
    checked = 0
    for k in range(1, 5):
        for level in bfs_levels(k, 7):
            for x in level:
                decomp = canonical_decomposition(x, direction, side)
                assert decomp.rows == peeled_decomposition(x, direction, side), x
                checked += 1
    assert checked == 1166


@pytest.mark.parametrize("variant", ["rd", "ri", "ld", "li"])
def test_affine_code_matches_window_count(variant):
    checked = 0
    for k in range(1, 5):
        for level in bfs_levels(k, 7):
            for x in level:
                assert affine_code(x, variant) == window_code(x, variant), x
                checked += 1
    assert checked == 1166


def _try_peel(x, s, word_maker):
    for letter in reversed(word_maker(x.k, s)):
        if letter not in x.right_descents():
            return None
        x = x.times_s(letter)
    return x


def test_canonical_size_vector_is_lex_max():
    from affinecodes.cyclic import d_word, u_word

    for k in (2,):
        n = k + 1
        subsets = [
            frozenset(c)
            for size in range(1, n)
            for c in combinations(range(n), size)
        ]
        for direction, maker in ((DECREASING, d_word), (INCREASING, u_word)):
            seen = {}

            def vectors(x):
                key = x.window
                if key in seen:
                    return seen[key]
                if x.is_identity():
                    out = [()]
                else:
                    out = []
                    for s in subsets:
                        y = _try_peel(x, s, maker)
                        if y is not None:
                            out.extend((len(s),) + rest for rest in vectors(y))
                seen[key] = out
                return out

            for x in _enum(k, 5):
                best = max(vectors(x))
                canonical = canonical_decomposition(x, direction, "right")
                assert tuple(len(r) for r in canonical.rows) == best
            seen.clear()


def test_strip_predicates():
    assert is_horizontal_strip((2, 1, 3, 0), (1, 1, 2, 0))
    assert not is_horizontal_strip((3, 1, 2, 0), (1, 1, 2, 0))
    assert is_vertical_strip((2, 1, 3, 0), (2, 0, 2, 0))
    assert not is_vertical_strip((2, 2, 3, 0), (1, 1, 3, 0))
    # rows are cyclic runs: an empty column separates the two new cells
    assert is_vertical_strip((1, 0, 1, 0), (0, 0, 0, 0))
    assert not is_vertical_strip((1, 1, 0, 0), (0, 0, 0, 0))
    # the full circle is one row even though column 0 starts no run
    assert not is_vertical_strip((2, 1, 1, 1), (1, 0, 1, 0))
    assert is_vertical_strip((2, 1, 1, 1), (1, 1, 1, 0))
    with pytest.raises(NotContained):
        is_horizontal_strip((1, 0), (2, 0))
    with pytest.raises(NotContained):
        is_vertical_strip((1, 0, 0), (1, 0))


def test_mirror_code():
    assert mirror_code(K3_RI) == K3_CONJ_RD
    for x in _sweep():
        for c in (rd(x), ri(x)):
            assert mirror_code(mirror_code(c)) == c
            assert mirror_code(c)[0] == c[0]


def test_conjugate_golden():
    y = k_conjugate_perm(golden())
    assert y.window == K3_CONJ_WINDOW
    assert rd(y) == K3_CONJ_RD


def test_conjugate_properties():
    for x in _sweep():
        n = x.n
        y = k_conjugate_perm(x)
        assert k_conjugate_perm(y) == x
        assert y.length() == x.length()
        assert rd(y) == mirror_code(ri(x))
        assert ri(y) == mirror_code(rd(x))
        assert y.right_descents() == frozenset((-i) % n for i in x.right_descents())


def test_conjugate_sends_grassmannian_to_conjugate_shape():
    for k, bounded in ((2, (2, 1)), (3, GRASS_LAMBDA), (4, (3, 2, 2, 1))):
        w = grassmannian_perm(k, bounded)
        w_conj = grassmannian_perm(k, k_conjugate_partition(k, bounded))
        assert k_conjugate_perm(w) == w_conj
