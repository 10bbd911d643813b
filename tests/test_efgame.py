"""Round-limited comparison games between two finite models."""

import pytest

from finord import (DUPLICATOR, SPOILER, FiniteModel, ResourceLimitError,
                    atomic_agreement, ef_equiv, ef_winner)


def test_winner_examples():
    assert ef_winner(FiniteModel(0), FiniteModel(1), 0) == DUPLICATOR
    assert ef_winner(FiniteModel(0), FiniteModel(1), 1) == SPOILER
    assert ef_winner(FiniteModel(2), FiniteModel(3), 1) == DUPLICATOR
    assert ef_winner(FiniteModel(2), FiniteModel(3), 2) == SPOILER


def test_zero_rounds_always_duplicator():
    for m in range(5):
        for n in range(5):
            assert ef_equiv(m, n, 0) is True


def test_one_round_classes():
    # sizes 0 and 1 are alone; everything from 2 up collapses
    for m in range(7):
        for n in range(7):
            expected = m == n or (m >= 2 and n >= 2)
            assert ef_equiv(m, n, 1) is expected, (m, n)


def test_two_round_classes():
    # sizes 0..5 are alone; everything from 6 up collapses
    for m in range(9):
        for n in range(9):
            expected = m == n or (m >= 6 and n >= 6)
            assert ef_equiv(m, n, 2) is expected, (m, n)


def test_three_round_small_separations():
    for m, n in [(0, 1), (2, 3), (5, 6), (6, 7)]:
        assert ef_equiv(m, n, 3) is False


def test_reflexive_and_symmetric():
    for k in range(3):
        for m in range(6):
            assert ef_equiv(m, m, k) is True
            for n in range(6):
                assert ef_equiv(m, n, k) == ef_equiv(n, m, k)


def test_failure_monotone_in_rounds():
    for m in range(6):
        for n in range(6):
            for k in range(3):
                if not ef_equiv(m, n, k):
                    assert not ef_equiv(m, n, k + 1), (m, n, k)


def test_transitive_on_grid():
    for k in range(3):
        values = {(m, n): ef_equiv(m, n, k)
                  for m in range(6) for n in range(6)}
        for a in range(6):
            for b in range(6):
                for c in range(6):
                    if values[(a, b)] and values[(b, c)]:
                        assert values[(a, c)], (a, b, c, k)


def test_atomic_agreement():
    m2, m3 = FiniteModel(2), FiniteModel(3)
    assert atomic_agreement(m2, (), m3, ()) is True
    # bottom vs an atom disagree on At
    assert atomic_agreement(m2, (0,), m3, (1,)) is False
    # two singletons agree unnestedly
    assert atomic_agreement(m2, (1,), m3, (2,)) is True
    # full sets of different internal order structure still agree atomically
    assert atomic_agreement(m2, (3,), m3, (7,)) is True
    # pair facts: (atom, its superset) vs (atom, disjoint set)
    assert atomic_agreement(m2, (1, 3), m3, (1, 6)) is False


def test_round_count_validation():
    with pytest.raises(ValueError):
        ef_winner(FiniteModel(1), FiniteModel(1), -1)


def test_memo_budget_enforced():
    with pytest.raises(ResourceLimitError):
        ef_winner(FiniteModel(3), FiniteModel(4), 2, memo_budget=0)
