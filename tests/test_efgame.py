"""Round-limited comparison games between two finite models."""

import random

import pytest

from finord import (DUPLICATOR, SPOILER, FiniteModel, ResourceLimitError,
                    atomic_agreement, cli, ef_equiv, ef_winner)


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
    # only the facts against the first entry tell these long tuples apart
    middle = (4,) * 18
    assert atomic_agreement(m3, (1,) + middle + (2,),
                            m3, (1,) + middle + (1,)) is False


def _plain_agreement(left, a_tuple, right, b_tuple):
    """Same At for every entry and same =, ⊆, ⊑ for every ordered pair of
    entries, with ⊥ appended to both tuples."""
    def facts(model, t):
        t = tuple(t) + (model.bot,)
        return ([model.is_atom(x) for x in t],
                [(x == y, model.subset(x, y), model.exle(x, y))
                 for x in t for y in t])
    return facts(left, a_tuple) == facts(right, b_tuple)


def _naive_duplicator_wins(left, right, a_tuple, b_tuple, rounds):
    """Plain minimax with no memo; agreement checked only at the end."""
    if rounds == 0:
        return _plain_agreement(left, a_tuple, right, b_tuple)
    return (all(any(_naive_duplicator_wins(left, right, a_tuple + (c,),
                                           b_tuple + (d,), rounds - 1)
                    for d in right.universe())
                for c in left.universe())
            and all(any(_naive_duplicator_wins(left, right, a_tuple + (d,),
                                               b_tuple + (c,), rounds - 1)
                        for d in left.universe())
                    for c in right.universe()))


def test_atomic_agreement_matches_plain_definition():
    rng = random.Random(3)
    agreed = 0
    for _ in range(3000):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        # up to 14 entries: codes past 12 entries leave int64
        length = rng.choice([0, 1, 2, 3, 4, 14])
        a = tuple(rng.randrange(1 << m) for _ in range(length))
        b = (a if m == n and rng.random() < 0.3 else
             tuple(rng.randrange(1 << n) for _ in range(length)))
        left, right = FiniteModel(m), FiniteModel(n)
        want = _plain_agreement(left, a, right, b)
        assert atomic_agreement(left, a, right, b) is want, (m, a, n, b)
        agreed += want
    assert 300 < agreed < 2700


def test_atomic_agreement_validation():
    with pytest.raises(ValueError):
        atomic_agreement(FiniteModel(1), (0,), FiniteModel(1), ())
    with pytest.raises(ValueError):
        atomic_agreement(FiniteModel(1), (2,), FiniteModel(2), (2,))
    with pytest.raises(ValueError):
        atomic_agreement(FiniteModel(1), (0,), FiniteModel(2), (-1,))


@pytest.mark.parametrize("k,top", [(0, 3), (1, 3), (2, 3), (3, 2)])
def test_ef_equiv_matches_naive_minimax(k, top):
    for m in range(top + 1):
        for n in range(top + 1):
            want = _naive_duplicator_wins(FiniteModel(m), FiniteModel(n),
                                          (), (), k)
            assert ef_equiv(m, n, k) is want, (m, n, k)


def test_round_count_validation():
    with pytest.raises(ValueError):
        ef_winner(FiniteModel(1), FiniteModel(1), -1)


def test_memo_budget_enforced():
    with pytest.raises(ResourceLimitError):
        ef_winner(FiniteModel(3), FiniteModel(4), 2, memo_budget=0)


def test_atom_limit(capsys):
    # equal sizes are settled without building any array
    assert ef_equiv(20, 20, 3) is True
    for m, n, k in ((0, 21, 1), (21, 20, 1), (21, 21, 0)):
        with pytest.raises(ResourceLimitError, match="limit of 20"):
            ef_equiv(m, n, k)
    assert cli.main(["efgame", "--left", "0", "--right", "21",
                     "--rounds", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "limit of 20" in err


def test_memo_budget_counts_code_sets():
    # one round left: only the two sides' code sets are stored
    with pytest.raises(ResourceLimitError):
        ef_winner(FiniteModel(2), FiniteModel(3), 1, memo_budget=0)
    assert ef_winner(FiniteModel(2), FiniteModel(3), 1,
                     memo_budget=2) == DUPLICATOR


def test_memo_budget_counts_candidate_answers():
    # 48 memo entries settle this game, but the search also charges every
    # Spoiler pick its number of candidate answers
    left, right = FiniteModel(4), FiniteModel(5)
    with pytest.raises(ResourceLimitError) as info:
        ef_winner(left, right, 2, memo_budget=48)
    for part in ("budget of 48", "2 rounds", "4 and 5 atoms"):
        assert part in str(info.value)
    assert ef_winner(left, right, 2, memo_budget=380) == SPOILER
