import itertools
import random

import pytest

from affinecodes import AffinePermutation
from affinecodes.codes import affine_code, code_to_permutation, rd
from affinecodes import LetterOutOfRange, NotACode, RankMismatch, RankTooSmall
from affinecodes.insertion import (
    BoundExceeded,
    DescentViolation,
    InsertionTrace,
    NotReduced,
    NotStandard,
    RecordingTableau,
    count_reduced_words,
    enumerate_reduced_words,
    insert,
    insert_word,
    reverse_insert,
)
from goldens import INSERT_CODE, INSERT_FIRST_ROW, INSERT_LABELS, INSERT_WORD
from oracles import (
    _code_of_rows,
    _rows_of_code,
    bfs_levels,
    left_reduced_word_count,
    naive_right_descents,
    row_insert,
    row_insert_word,
    scanning_reverse_insert,
)


def golden_tableau():
    return RecordingTableau(3, tuple(sorted(INSERT_LABELS.items())))


def test_insert_word_golden():
    code, tab = insert_word(3, INSERT_WORD)
    assert code == INSERT_CODE
    assert tab == golden_tableau()
    first_row = [label for (col, row), label in tab.cells if row == 1]
    assert first_row == INSERT_FIRST_ROW


def test_reverse_insert_golden():
    assert reverse_insert(INSERT_CODE, golden_tableau()) == INSERT_WORD


def test_empty_word():
    code, tab = insert_word(3, [])
    assert code == (0, 0, 0, 0)
    assert tab.cells == ()
    assert reverse_insert(code, tab) == []


def test_word_validation():
    with pytest.raises(LetterOutOfRange):
        insert_word(3, [0, 9])
    with pytest.raises(LetterOutOfRange):
        insert_word(3, [-1])
    for k in (0, -2):
        with pytest.raises(RankTooSmall):
            insert_word(k, [0])
    for letter in (9, 4, -1):
        with pytest.raises(LetterOutOfRange):
            insert((0, 0, 0, 0), letter)
    for code, letter in (((1, 1, 1, 1), 0), ((2, 0, -1, 0), 1)):
        with pytest.raises(NotACode):
            insert(code, letter)
    with pytest.raises(RankTooSmall):
        insert((0,), 0)
    for code in ((), (0,)):
        with pytest.raises(RankTooSmall):
            reverse_insert(code, RecordingTableau(0, ()))
    with pytest.raises(NotACode):
        reverse_insert((-1, 0, 1), RecordingTableau(2, (((2, 1), 1),)))
    cells = (((2, 1), 1), ((2, 2), 2), ((2, 3), 3))
    assert reverse_insert((0, 0, 3, 0), RecordingTableau(3, cells)) == [0, 1, 2]
    for k in (2, 7):
        with pytest.raises(RankMismatch):
            reverse_insert((0, 0, 3, 0), RecordingTableau(k, cells))


def test_not_reduced_position():
    with pytest.raises(NotReduced) as info:
        insert_word(3, INSERT_WORD + [0])
    assert info.value.position == len(INSERT_WORD)
    with pytest.raises(NotReduced) as info:
        insert_word(3, [0, 0])
    assert info.value.position == 1


def test_not_standard_rejections():
    labels = dict(INSERT_LABELS)
    labels[(0, 1)] = 6
    with pytest.raises(NotStandard):
        reverse_insert(INSERT_CODE, RecordingTableau(3, tuple(sorted(labels.items()))))

    labels = dict(INSERT_LABELS)
    del labels[(2, 3)]
    labels[(3, 1)] = 4
    with pytest.raises(NotStandard):
        reverse_insert(INSERT_CODE, RecordingTableau(3, tuple(sorted(labels.items()))))

    labels = dict(INSERT_LABELS)
    labels[(1, 1)], labels[(0, 2)] = labels[(0, 2)], labels[(1, 1)]
    with pytest.raises(NotStandard):
        reverse_insert(INSERT_CODE, RecordingTableau(3, tuple(sorted(labels.items()))))


def _sweep():
    out = []
    for k, bound in ((2, 6), (3, 5)):
        for lvl in bfs_levels(k, bound):
            out.extend(x for x in lvl if not x.is_identity())
    return out


def test_insert_tracks_right_multiplication():
    for x in _sweep():
        code = rd(x)
        for p in range(x.n):
            if p in x.right_descents():
                with pytest.raises(DescentViolation):
                    insert(code, p)
            else:
                new_code, trace = insert(code, p)
                assert new_code == rd(x.times_s(p))
                assert sum(new_code) == sum(code) + 1
                col, row = trace.final_cell
                assert new_code[col] >= row
                actions = [a for _, a, _ in trace.steps]
                assert actions[-1] == "include"
                assert set(actions) <= {"include", "bump", "braid"}


def test_recording_tableaux_biject_with_reduced_words():
    for k in (2, 3):
        for lvl in bfs_levels(k, 5):
            for x in lvl:
                if x.is_identity():
                    continue
                words = enumerate_reduced_words(x)
                assert len(words) == count_reduced_words(x)
                assert len(words) == left_reduced_word_count(x)
                code = rd(x)
                tableaux = set()
                for word in words:
                    got_code, tab = insert_word(k, word)
                    assert got_code == code
                    assert reverse_insert(code, tab) == word
                    tableaux.add(tab)
                assert len(tableaux) == len(words)


def test_insert_word_matches_element():
    word = [1, 2, 0, 3, 2, 1]
    x = AffinePermutation.from_word(3, word)
    code, _ = insert_word(3, word)
    assert code == rd(x)
    assert code_to_permutation(code) == x


def test_bound_exceeded():
    x = code_to_permutation(INSERT_CODE)
    total = count_reduced_words(x)
    assert total == len(enumerate_reduced_words(x))
    with pytest.raises(BoundExceeded):
        enumerate_reduced_words(x, bound=total - 1)
    with pytest.raises(BoundExceeded):
        count_reduced_words(x, bound=total - 1)
    assert count_reduced_words(x, bound=total) == total


def _random_reduced_word(k, length, rng):
    """A reduced word of the given length: every letter is a right ascent."""
    x = AffinePermutation.identity(k)
    word = []
    for _ in range(length):
        descents = naive_right_descents(x.window)
        letter = rng.choice([i for i in range(k + 1) if i not in descents])
        x = x.times_s(letter)
        word.append(letter)
    return word


def _fold_insert(k, word):
    """insert_word rebuilt from public insert, one letter at a time."""
    n = k + 1
    code = (0,) * n
    labels = {}
    for step, letter in enumerate(word, start=1):
        code, trace = insert(code, letter)
        for j, action, carry in trace.steps:
            if action == "bump":
                labels[((carry + j - 1) % n, j)] = labels.pop(((carry + j - 2) % n, j))
        labels[trace.final_cell] = step
    return code, RecordingTableau(k, tuple(sorted(labels.items())))


def _long_word(k):
    rng = random.Random(f"long-insertion/{k}")
    return _random_reduced_word(k, rng.randint(300, 600), rng)


@pytest.mark.parametrize("k", range(3, 9))
def test_long_words_match_letter_by_letter_insertion(k):
    word = _long_word(k)
    x = AffinePermutation.from_word(k, word)
    code, tableau = insert_word(k, word)
    assert (code, tableau) == _fold_insert(k, word)
    assert code == affine_code(x, "rd")
    assert reverse_insert(code, tableau) == word
    with pytest.raises(NotReduced) as info:
        insert_word(k, word + word[-1:])
    assert info.value.position == len(word)


def _outcome(run, *args):
    """run(*args), or the type and position of the NotReduced or NotStandard
    it raises."""
    try:
        return run(*args)
    except (NotReduced, NotStandard) as err:
        return type(err), getattr(err, "position", None)


def _assert_insertion_matches_oracle(k, word):
    got = _outcome(insert_word, k, word)
    assert got == _outcome(row_insert_word, k, word)
    if isinstance(got[1], RecordingTableau):
        assert reverse_insert(*got) == scanning_reverse_insert(*got) == word


def test_cell_map_matches_row_set_oracle():
    for k in (1, 2, 3):
        for length in range(6):
            for word in itertools.product(range(k + 1), repeat=length):
                _assert_insertion_matches_oracle(k, list(word))
    for k in range(3, 9):
        word = _long_word(k)
        _assert_insertion_matches_oracle(k, word)
        _assert_insertion_matches_oracle(k, word + word[-1:])
    cells = sorted(INSERT_LABELS)
    for a, b in itertools.combinations(cells, 2):
        labels = dict(INSERT_LABELS)
        labels[a], labels[b] = labels[b], labels[a]
        tableau = RecordingTableau(3, tuple(sorted(labels.items())))
        assert _outcome(reverse_insert, INSERT_CODE, tableau) == _outcome(
            scanning_reverse_insert, INSERT_CODE, tableau
        )
    as_floats = {cell: float(label) for cell, label in INSERT_LABELS.items()}
    tableau = RecordingTableau(3, tuple(sorted(as_floats.items())))
    assert reverse_insert(INSERT_CODE, tableau) == INSERT_WORD
    assert scanning_reverse_insert(INSERT_CODE, tableau) == INSERT_WORD


def _codes(k, most):
    """Every code of rank k with at most `most` cells."""
    return [
        code
        for code in itertools.product(range(most + 1), repeat=k + 1)
        if 0 in code and sum(code) <= most
    ]


def test_reverse_insert_matches_scanning_oracle_on_every_labelling():
    for k in (1, 2, 3):
        for code in _codes(k, 5):
            diagram = [(i, j) for i in range(k + 1) for j in range(1, code[i] + 1)]
            for labels in itertools.permutations(range(1, len(diagram) + 1)):
                tableau = RecordingTableau(k, tuple(zip(diagram, labels)))
                got = _outcome(reverse_insert, code, tableau)
                assert got == _outcome(scanning_reverse_insert, code, tableau)
                if isinstance(got, list):
                    assert insert_word(k, got) == (code, tableau)


def test_insert_matches_row_set_oracle_on_every_small_code():
    for k in (1, 2, 3, 4):
        n = k + 1
        for code in _codes(k, 6):
            for p in range(n):
                rows = _rows_of_code(code)
                try:
                    steps, cell = row_insert(rows, p, n)
                except DescentViolation:
                    with pytest.raises(DescentViolation):
                        insert(code, p)
                    continue
                trace = InsertionTrace(tuple(steps), cell)
                assert insert(code, p) == (_code_of_rows(n, rows), trace)
