"""Round-limited comparison games between two finite models."""

import functools
import random

import pytest

from finord import (DUPLICATOR, SPOILER, FiniteModel, ResourceLimitError,
                    atomic_agreement, cli, ef_equiv, ef_winner)
from finord.automata import _fact_start, _fact_step
from finord.efgame import DEFAULT_MEMO_BUDGET, _machine, _Solver


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
    for m in range(21):
        for n in range(21):
            expected = m == n or (m >= 2 and n >= 2)
            assert ef_equiv(m, n, 1) is expected, (m, n)


def test_two_round_classes():
    # sizes 0..5 are alone; everything from 6 up collapses
    for m in range(21):
        for n in range(21):
            expected = m == n or (m >= 6 and n >= 6)
            assert ef_equiv(m, n, 2) is expected, (m, n)


def test_type_machines_match_search():
    # the search stays the oracle for the games read off the type machines
    for k in (1, 2):
        for m in range(9):
            for n in range(9):
                left, right = FiniteModel(m), FiniteModel(n)
                won = _Solver(left, right, k, DEFAULT_MEMO_BUDGET
                              ).duplicator_wins((), (), k)
                assert ef_equiv(m, n, k) is won, (m, n, k)


def test_spoiler_wins_past_the_smaller_order():
    # Spoiler picks min(m, n) + 1 atoms of the larger order, one more than
    # the smaller has; the search agrees with the shortcut taken first
    for m in range(5):
        for n in range(5):
            if m != n:
                k = min(m, n) + 1
                left, right = FiniteModel(m), FiniteModel(n)
                assert not _Solver(left, right, k, DEFAULT_MEMO_BUDGET
                                   ).duplicator_wins((), (), k), (m, n)
                assert ef_winner(left, right, k) == SPOILER
    # rounds past the recursion limit answer at once
    assert ef_winner(FiniteModel(1), FiniteModel(2), 2000) == SPOILER
    assert ef_equiv(1, 2, 400) is False
    assert ef_equiv(3, 3, 2000) is True


def test_two_round_games_ignore_the_memo_budget():
    assert ef_equiv(12, 13, 2, memo_budget=0) is True
    assert ef_equiv(19, 20, 2, memo_budget=0) is True


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
    # an atom and ⊥, 13 times over: only At and = ⊥, the top bits of 68-bit
    # codes, tell these apart
    assert atomic_agreement(m2, (1,) * 13, m2, (0,) * 13) is False


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


def _random_tuple_pairs():
    """3000 seeded (left, a, right, b): structures of up to 5 atoms and
    tuples of up to 14 entries, since codes past 12 entries leave int64."""
    rng = random.Random(3)
    for _ in range(3000):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        length = rng.choice([0, 1, 2, 3, 4, 14])
        a = tuple(rng.randrange(1 << m) for _ in range(length))
        b = (a if m == n and rng.random() < 0.3 else
             tuple(rng.randrange(1 << n) for _ in range(length)))
        yield FiniteModel(m), a, FiniteModel(n), b


def test_atomic_agreement_matches_plain_definition():
    agreed = 0
    for left, a, right, b in _random_tuple_pairs():
        want = _plain_agreement(left, a, right, b)
        assert atomic_agreement(left, a, right, b) is want, (left, a, right, b)
        agreed += want
    assert 300 < agreed < 2700


def _letters(model, t):
    """The word that spells tuple t over model's atoms, one track per entry."""
    return [sum((e >> p & 1) << i for i, e in enumerate(t))
            for p in range(model.n)]


def _atomic_output(model, t):
    """M(0, len(t))'s output, its state, by folding its transition."""
    state = _fact_start(len(t))
    for letter in _letters(model, t):
        state = _fact_step(state, letter)
    return state


def _machine_output(model, t, rounds=0):
    rows, outputs = _machine(rounds, len(t))
    state = 0
    for letter in _letters(model, t):
        state = rows[state][letter]
    return outputs[state]


def test_atomic_machine_matches_atomic_agreement():
    # the built and minimized machine on up to two tracks, the transition
    # itself on every tuple
    for left, a, right, b in _random_tuple_pairs():
        want = atomic_agreement(left, a, right, b)
        assert (_atomic_output(left, a) == _atomic_output(right, b)) is want
        if len(a) <= 2:
            assert (_machine_output(left, a)
                    == _machine_output(right, b)) is want, (left, a, right, b)


def test_one_track_machine_matches_search():
    # M(1, 1) gives two sets one type exactly when they agree and Duplicator
    # wins the one round left from them
    for m in range(5):
        for n in range(5):
            left, right = FiniteModel(m), FiniteModel(n)
            solver = _Solver(left, right, 1, DEFAULT_MEMO_BUDGET)
            for a in left.universe():
                for b in right.universe():
                    want = (atomic_agreement(left, (a,), right, (b,))
                            and solver.duplicator_wins((a,), (b,), 1))
                    assert (_machine_output(left, (a,), 1)
                            == _machine_output(right, (b,), 1)) is want


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


def _oracle(left, right):
    """Memoized minimax over every pick and every answer, tuples compared by
    _plain_agreement: no codes and no pruning."""
    @functools.cache
    def wins(a, b, rounds):
        if not _plain_agreement(left, a, right, b):
            return False
        return rounds == 0 or (
            all(any(wins(a + (c,), b + (d,), rounds - 1)
                    for d in right.universe()) for c in left.universe())
            and all(any(wins(a + (d,), b + (c,), rounds - 1)
                        for d in left.universe()) for c in right.universe()))
    return wins


def _seeded_positions():
    """Seeded agreeing starts whose tuples draw ⊥ and earlier entries often:
    1 round left on up to 4 atoms, 2 rounds left on up to 3 and 4."""
    rng = random.Random(7)
    for rounds, top, count in ((1, 4, 150), (2, 3, 150), (2, 4, 20)):
        for _ in range(count):
            left = FiniteModel(rng.randint(1, top))
            right = FiniteModel(rng.randint(1, top))
            a, b = (), ()
            for _ in range(rng.randint(1, 3)):
                c = rng.choice([0, *a] + [rng.randrange(1 << left.n)] * 2)
                fits = [d for d in right.universe()
                        if _plain_agreement(left, a + (c,), right, b + (d,))]
                if not fits:
                    break
                a, b = a + (c,), b + (rng.choice(fits),)
            yield left, a, right, b, rounds


def test_solver_matches_oracle_at_every_position():
    # the solver answers from one round up; ef_winner never asks it for 0
    for k in range(1, 4):
        for m in range(4):
            for n in range(4):
                left, right = FiniteModel(m), FiniteModel(n)
                won = _Solver(left, right, k, DEFAULT_MEMO_BUDGET
                              ).duplicator_wins((), (), k)
                assert won is _oracle(left, right)((), (), k), (m, n, k)
    dominated = 0
    for left, a, right, b, rounds in _seeded_positions():
        assert atomic_agreement(left, a, right, b)
        dominated += 0 in a or len(set(a)) < len(a)
        won = _Solver(left, right, rounds, DEFAULT_MEMO_BUDGET
                      ).duplicator_wins(a, b, rounds)
        assert won is _oracle(left, right)(a, b, rounds), (left, a, right, b)
    assert dominated > 100


def test_round_count_validation():
    with pytest.raises(ValueError):
        ef_winner(FiniteModel(1), FiniteModel(1), -1)


def test_memo_budget_enforced():
    # games of at most two rounds never search, so the budget binds from 3
    with pytest.raises(ResourceLimitError):
        ef_winner(FiniteModel(3), FiniteModel(4), 3, memo_budget=0)


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
    # 4 positions, 4 code sets compared with one round left, and 6 candidate
    # answers: without the code sets the search would spend 10.  ef_winner
    # answers this game before any search (3 rounds exceed 2 atoms), so the
    # search runs on its own
    left, right = FiniteModel(2), FiniteModel(3)
    with pytest.raises(ResourceLimitError) as info:
        _Solver(left, right, 3, 13).duplicator_wins((), (), 3)
    for part in ("budget of 13", "3 rounds", "2 and 3 atoms"):
        assert part in str(info.value)
    solver = _Solver(left, right, 3, 14)
    assert not solver.duplicator_wins((), (), 3)
    assert solver.spent == 14 and len(solver.memo) == 8
    assert ef_winner(left, right, 3, memo_budget=0) == SPOILER


def test_memo_budget_counts_candidate_answers():
    # 20 memo entries settle this game, but the search also charges every
    # Spoiler pick its number of candidate answers
    left, right = FiniteModel(4), FiniteModel(5)
    with pytest.raises(ResourceLimitError) as info:
        ef_winner(left, right, 3, memo_budget=20)
    for part in ("budget of 20", "3 rounds", "4 and 5 atoms"):
        assert part in str(info.value)
    assert ef_winner(left, right, 3, memo_budget=54) == SPOILER
    solver = _Solver(left, right, 3, 54)
    assert not solver.duplicator_wins((), (), 3)
    assert len(solver.memo) == 20
