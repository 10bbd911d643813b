"""Exhaustive solver for the unnested k-round comparison game between two
finite power-set structures.

Each round the first player (Spoiler) picks any element of either structure
and the second player (Duplicator) answers with an element of the other; the
second player wins when, after all rounds, every unnested atomic fact — the
forms X=Y, X⊆Y, X⊑Y, At(X), and every variant with ⊥ for an argument —
holds of the left tuple exactly as of the right tuple.

The solver is a memoized minimax over game states with two exact
accelerations: structures of equal size are immediately a Duplicator win
(copy the opponent's move), and a state with one round left is decided by
comparing, per side, the set of realizable answer profiles (an answer's
atomic facts about itself and the chosen tuple), which is precisely the
condition under which every final pick can be mirrored.
"""

from __future__ import annotations

import numpy as np

from .model import FiniteModel, ResourceLimitError

SPOILER = "Spoiler"
DUPLICATOR = "Duplicator"

DEFAULT_MEMO_BUDGET = 2 ** 26


def _facts(model: FiniteModel, e: int, a: int) -> tuple[bool, ...]:
    """The ordered-pair atomic facts between two elements."""
    return (e == a,
            model.subset(e, a),
            model.subset(a, e),
            model.exle(e, a),
            model.exle(a, e))


def _self_facts(model: FiniteModel, e: int) -> tuple[bool, ...]:
    """Unary facts of one element; the ⊥-variant atoms reduce to these
    (e ⊆ ⊥ iff e = ⊥; ⊥ ⊆ e always; ⊑ with ⊥ never; At(⊥) never)."""
    return (e == 0, model.is_atom(e), model.exle(e, e))


def atomic_agreement(left: FiniteModel, a_tuple, right: FiniteModel,
                     b_tuple) -> bool:
    """Do the two tuples satisfy exactly the same unnested atomic formulas,
    including every variant with ⊥ substituted for an argument?"""
    a_tuple, b_tuple = tuple(a_tuple), tuple(b_tuple)
    if len(a_tuple) != len(b_tuple):
        raise ValueError("tuples must have equal length")
    for a, b in zip(a_tuple, b_tuple):
        if _self_facts(left, a) != _self_facts(right, b):
            return False
    for i, (a, b) in enumerate(zip(a_tuple, b_tuple)):
        for j in range(i):
            if _facts(left, a, a_tuple[j]) != _facts(right, b, b_tuple[j]):
                return False
    return True


class _Solver:
    def __init__(self, left: FiniteModel, right: FiniteModel, budget: int):
        self.left = left
        self.right = right
        self.budget = budget
        self.memo: dict[tuple, bool] = {}
        self.profile_keys: dict[tuple, bytes] = {}

    def duplicator_wins(self, a_tuple: tuple[int, ...],
                        b_tuple: tuple[int, ...], rounds: int) -> bool:
        if not atomic_agreement(self.left, a_tuple, self.right, b_tuple):
            return False
        if self.left.n == self.right.n and a_tuple == b_tuple:
            return True
        if rounds == 0:
            return True
        if rounds == 1:
            return (self._profile_key(0, a_tuple)
                    == self._profile_key(1, b_tuple))
        key = (a_tuple, b_tuple, rounds)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if len(self.memo) >= self.budget:
            raise ResourceLimitError(
                f"game state budget of {self.budget} memo entries exceeded")
        result = True
        for pick_left in (True, False):
            picker = self.left if pick_left else self.right
            other = self.right if pick_left else self.left
            for c in picker.universe():
                answered = False
                for d in other.universe():
                    ext_a = a_tuple + ((c,) if pick_left else (d,))
                    ext_b = b_tuple + ((d,) if pick_left else (c,))
                    if self.duplicator_wins(ext_a, ext_b, rounds - 1):
                        answered = True
                        break
                if not answered:
                    result = False
                    break
            if not result:
                break
        self.memo[key] = result
        return result

    def _profile_key(self, side: int, t: tuple[int, ...]) -> bytes:
        """Fingerprint of the set of answer profiles available on one side:
        for every element e, its self facts plus its pair facts against each
        tuple entry, encoded as a bit pattern.  Two states with one round
        left are Duplicator wins exactly when agreeing tuples realize equal
        profile sets."""
        cache_key = (side, t)
        hit = self.profile_keys.get(cache_key)
        if hit is not None:
            return hit
        model = self.left if side == 0 else self.right
        low, high, pop = model.bit_tables()
        es = np.arange(1 << model.n, dtype=np.int64)
        code = (es == 0).astype(np.int64)
        code = 2 * code + (pop[es] == 1)
        code = 2 * code + (low[es] < high[es])
        for a in t:
            code = 2 * code + (es == a)
            code = 2 * code + ((es & ~a) == 0)
            code = 2 * code + ((a & ~es) == 0)
            code = 2 * code + (low[es] < high[a])
            code = 2 * code + (low[a] < high[es])
        key = np.unique(code).tobytes()
        self.profile_keys[cache_key] = key
        return key


def ef_winner(left: FiniteModel, right: FiniteModel, k: int, *,
              memo_budget: int = DEFAULT_MEMO_BUDGET) -> str:
    """Winner of the k-round game with best play, "Spoiler" or
    "Duplicator"."""
    if k < 0:
        raise ValueError("round count must be a natural")
    solver = _Solver(left, right, memo_budget)
    won = solver.duplicator_wins((), (), k)
    return DUPLICATOR if won else SPOILER


def ef_equiv(m: int, n: int, k: int, *,
             memo_budget: int = DEFAULT_MEMO_BUDGET) -> bool:
    """Are the size-m and size-n structures indistinguishable in k rounds?"""
    return ef_winner(FiniteModel(m), FiniteModel(n), k,
                     memo_budget=memo_budget) == DUPLICATOR
