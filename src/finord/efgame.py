"""Exhaustive solver for the unnested k-round comparison game between two
finite power-set structures.

Each round the first player (Spoiler) picks any element of either structure
and the second player (Duplicator) answers with an element of the other; the
second player wins when, after all rounds, every unnested atomic fact — the
forms X=Y, X⊆Y, X⊑Y, At(X), and every variant with ⊥ for an argument —
holds of the left tuple exactly as of the right tuple.

Every fact is read from one code per element: against a chosen tuple t, an
element's code packs its unary facts and its pair facts with each entry of t.
The solver is a memoized minimax over agreeing positions.  Duplicator's
answers to a pick are the elements whose code equals the pick's; structures
of equal size are a Duplicator win at once (copy every move); and a position
with one round left is a Duplicator win exactly when both sides realize the
same set of codes, so that every final pick can be mirrored.  One memo holds
positions and code sets.  ``memo_budget`` bounds the search's work, counted
as memo entries plus each Spoiler pick's number of candidate answers.  A
structure of more than 20 atoms is refused before anything is built, since
every array the solver makes has one entry per element, 2^n of them.
"""

from __future__ import annotations

import numpy as np

from .model import FiniteModel, ResourceLimitError

SPOILER = "Spoiler"
DUPLICATOR = "Duplicator"

# memo entries plus candidate answers; 9 and 10 atoms in 2 rounds take 10**6
DEFAULT_MEMO_BUDGET = 2 ** 24
# each side's codes are one int64 per element: 16 MiB at 21 atoms, 2 GiB at 28
_MAX_ATOMS = 20


def _codes(model: FiniteModel, t: tuple[int, ...]) -> np.ndarray:
    """For every element e: e = ⊥, At(e), e ⊑ e, then for each entry a of t,
    e = a, e ⊆ a, a ⊆ e, e ⊑ a, a ⊑ e.  The ⊥-variant atoms reduce to the
    unary facts (e ⊆ ⊥ iff e = ⊥; ⊥ ⊆ e always; ⊑ and At with ⊥ never)."""
    low, high, pop = model.bit_tables()
    es = np.arange(1 << model.n, dtype=np.int64)
    # 3 + 5·len(t) bits: past 12 entries they need Python ints
    code = np.zeros(len(es), np.int64 if len(t) <= 12 else object)
    for fact in (es == 0, pop == 1, low < high):
        code = 2 * code + fact
    for a in t:
        for fact in (es == a, (es & ~a) == 0, (a & ~es) == 0,
                     low < high[a], low[a] < high):
            code = 2 * code + fact
    return code


def atomic_agreement(left: FiniteModel, a_tuple, right: FiniteModel,
                     b_tuple) -> bool:
    """Do the two tuples satisfy exactly the same unnested atomic formulas,
    including every variant with ⊥ substituted for an argument?"""
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    if len(a_tuple) != len(b_tuple):
        raise ValueError("tuples must have equal length")
    for model, t in ((left, a_tuple), (right, b_tuple)):
        if not all(0 <= e < 1 << model.n for e in t):
            raise ValueError(f"tuple {t} leaves the universe of {model}")
    return all(_codes(left, a_tuple[:i])[a] == _codes(right, b_tuple[:i])[b]
               for i, (a, b) in enumerate(zip(a_tuple, b_tuple)))


class _Solver:
    """Memoized minimax over agreeing positions."""

    def __init__(self, left: FiniteModel, right: FiniteModel, rounds: int,
                 budget: int):
        self.models = (left, right)
        self.game = (rounds, left.n, right.n)
        self.budget = budget
        self.spent = 0
        self.memo: dict[tuple, object] = {}

    def _charge(self, work: int) -> None:
        self.spent += work
        if self.spent > self.budget:
            k, m, n = self.game
            raise ResourceLimitError(
                f"game search budget of {self.budget} memo entries and "
                f"candidate answers exceeded ({k} rounds on {m} and {n} atoms)")

    def duplicator_wins(self, a: tuple[int, ...], b: tuple[int, ...],
                        rounds: int) -> bool:
        left, right = self.models
        if rounds == 0 or (left.n == right.n and a == b):
            return True
        if rounds == 1:
            return self._entry((0, a)) == self._entry((1, b))
        return self._entry((a, b, rounds))

    def _entry(self, key: tuple):
        """The memo entry for a position (a, b, rounds), its verdict, or for
        (side, t), the set of codes that side realizes against t."""
        hit = self.memo.get(key)
        if hit is None:
            self._charge(1)
            if len(key) == 2:
                side, t = key
                hit = tuple(np.unique(_codes(self.models[side], t)).tolist())
            else:
                hit = self._search(*key)
            self.memo[key] = hit
        return hit

    def _search(self, a: tuple[int, ...], b: tuple[int, ...],
                rounds: int) -> bool:
        """Spoiler picks every left element, then every right one;
        Duplicator tries the agreeing answers in ascending order."""
        left, right = _codes(self.models[0], a), _codes(self.models[1], b)
        rest = rounds - 1

        def answers(codes, code):
            found = np.flatnonzero(codes == code).tolist()
            self._charge(len(found))
            return found

        return (all(any(self.duplicator_wins(a + (c,), b + (d,), rest)
                        for d in answers(right, code))
                    for c, code in enumerate(left))
                and all(any(self.duplicator_wins(a + (d,), b + (c,), rest)
                            for d in answers(left, code))
                        for c, code in enumerate(right)))


def ef_winner(left: FiniteModel, right: FiniteModel, k: int, *,
              memo_budget: int = DEFAULT_MEMO_BUDGET) -> str:
    """Winner of the k-round game with best play, "Spoiler" or
    "Duplicator"."""
    if k < 0:
        raise ValueError("round count must be a natural")
    if left.n > _MAX_ATOMS or right.n > _MAX_ATOMS:
        raise ResourceLimitError(f"game structures of {left.n} and {right.n} "
                                 f"atoms exceed the limit of {_MAX_ATOMS}")
    won = _Solver(left, right, k, memo_budget).duplicator_wins((), (), k)
    return DUPLICATOR if won else SPOILER


def ef_equiv(m: int, n: int, k: int, *,
             memo_budget: int = DEFAULT_MEMO_BUDGET) -> bool:
    """Are the size-m and size-n structures indistinguishable in k rounds?"""
    return ef_winner(FiniteModel(m), FiniteModel(n), k,
                     memo_budget=memo_budget) == DUPLICATOR
