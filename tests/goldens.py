"""Pinned expected values shared by the unit and acceptance tests.

Every value here was computed and cross-checked before being frozen: the
rank-3 catalogue against the printed worked example it reproduces, the rest
against independent oracles (window statistics, word multiplication, the
core bijection) at the time of writing.
"""

# Rank 3 running element: fifteen letters, window notation, descents.
K3_WORD = [2, 1, 0, 3, 0, 1, 2, 1, 0, 3, 1, 2, 0, 1, 0]
K3_WINDOW = (1, -6, 0, 15)
K3_LENGTH = 15
K3_DR = frozenset({0, 1})
K3_INV_WINDOW = (1, 10, -8, 7)
K3_INV_DR = frozenset({0, 2})

# Its four codes.
K3_RD = (3, 8, 4, 0)
K3_RI = (11, 3, 0, 1)
K3_LD = (4, 3, 8, 0)
K3_LI = (3, 0, 11, 1)

# Canonical decomposition rows, rightmost factor first.
K3_RD_ROWS = (
    frozenset({0, 1, 2}),
    frozenset({0, 1, 3}),
    frozenset({0, 2, 3}),
    frozenset({2, 3}),
    frozenset({1}),
    frozenset({0}),
    frozenset({3}),
    frozenset({2}),
)
K3_RI_ROWS = (
    frozenset({0, 1, 3}),
    frozenset({1, 2}),
    frozenset({2, 3}),
    frozenset({3}),
    frozenset({0}),
    frozenset({1}),
    frozenset({2}),
    frozenset({3}),
    frozenset({0}),
    frozenset({1}),
    frozenset({2}),
)

# Box-complement conjugate of the rank 3 element.
K3_CONJ_WINDOW = (-10, 5, 11, 4)
K3_CONJ_RD = (11, 1, 0, 3)

# Rank 7 element and its five decreasing factors, rightmost first.  Length 16:
# the fourth factor is the disconnected pair {0,5}, confirmed by an inversion
# count and by multiplying the factors back together.
K7_WINDOW = (-4, 1, 2, 0, 5, 14, 7, 11)
K7_DR = frozenset({0, 3, 6})
K7_FACTORS = (
    frozenset({6, 7, 0, 1, 2, 3, 4}),
    frozenset({7, 0, 1, 2}),
    frozenset({1, 6}),
    frozenset({0, 5}),
    frozenset({4}),
)
K7_STEP_WINDOWS = (
    (1, 2, 0, 5, 6, 7, 11, 4),
    (2, 0, 3, 5, 6, 7, 4, 9),
)

# Rank 9 two-row maximization.
K9_B = frozenset({0, 1, 2, 3, 4, 7, 8})
K9_A = frozenset({2, 3, 5, 8})
K9_A_NEW = frozenset({0, 1, 2, 3, 5, 7, 8})
K9_B_NEW = frozenset({1, 2, 4, 7})

# Rank 9 code with two printed flattenings of the same element.
K9_CODE = (2, 3, 1, 0, 0, 1, 0, 0, 3, 1)
K9_WORD_CUT3 = [9, 6, 0, 9, 7, 2, 1, 0, 9, 8, 5]
K9_WORD_CUT6 = [9, 6, 0, 9, 7, 5, 2, 1, 0, 9, 8]
K9_WINDOW = (0, -1, 2, 4, 7, 5, 8, 13, 6, 11)

# Insertion of a six letter word at rank 3.
INSERT_WORD = [0, 3, 1, 2, 1, 0]
INSERT_CODE = (2, 1, 3, 0)
INSERT_LABELS = {
    (0, 1): 2,
    (0, 2): 6,
    (1, 1): 5,
    (2, 1): 1,
    (2, 2): 3,
    (2, 3): 4,
}
INSERT_FIRST_ROW = [2, 5, 1]

# Cyclically decreasing word on a wrapping residue set.
DWORD_K5_SET = frozenset({0, 2, 4, 5})
DWORD_K5 = [0, 5, 4, 2]

# Shift identity for a dominant up-down product at rank 6.
FATMOVE_K = 6
FATMOVE_B = frozenset({3, 4, 5, 6})
FATMOVE_A = frozenset({0, 1, 2, 3, 4})
FATMOVE_A_NEW = frozenset({1, 2, 3, 4, 5})
FATMOVE_B_NEW = frozenset({4, 5, 6, 0})

# Core and conjugation catalogue.
CORE_K3 = ((3, 2, 2, 1, 1), (6, 3, 3, 1, 1))
CORE_K4 = ((3, 2, 2, 1, 1, 1), (6, 3, 3, 1, 1, 1))
CORE_K4_SMALL = ((2, 2, 1, 1, 1), (3, 3, 1, 1, 1))
KCONJ_K3 = ((3, 2, 2, 1, 1), (2, 2, 2, 1, 1, 1))
KCONJ_K4_SMALL = ((2, 2, 1, 1, 1), (3, 2, 2))

# Split of the rank 4 running core, bottom factor first.
SPLIT_K4_CORE = (6, 3, 3, 1, 1, 1)
SPLIT_K4_FACTORS = ((1, 1, 1), (2, 2), (3,))

# Grassmannian reading words for (3,2,2,1,1) at rank 3.
GRASS_LAMBDA = (3, 2, 2, 1, 1)
GRASS_WORD_DECREASING = [0, 1, 3, 2, 0, 3, 2, 1, 0]
GRASS_WORD_INCREASING = [1, 0, 3, 1, 2, 0, 1, 3, 0]
GRASS_RD = (5, 3, 1, 0)

# Smallest two-row sum at rank 2: s_(1,1) has three summands.
S11_K2_WORDS = ([0, 1], [1, 2], [2, 0])

# Term counts, coefficient sets and fingerprints of two k-Schur expansions,
# sha256(repr(sorted((window, coefficient) pairs)))[:16], computed with the
# product that composes whole windows and compares lengths.
KSCHUR_GOLDENS = {
    (5, (5, 4, 3, 2, 1)): (1092, {1, 2}, "697fca3e5938f4ee"),
    (4, (4, 3, 3, 2, 1)): (165, {1}, "21182a0fb7d0c129"),
}
