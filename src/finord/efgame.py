"""Solvers for the unnested k-round comparison game between two finite
power-set structures.

Each round the first player (Spoiler) picks any element of either structure
and the second player (Duplicator) answers with an element of the other; the
second player wins when, after all rounds, every unnested atomic fact — the
forms X=Y, X⊆Y, X⊑Y, At(X), and every variant with ⊥ for an argument —
holds of the left tuple exactly as of the right tuple.

Games of at most two rounds are read off type machines: Moore machines over
words with one letter per atom and one track per chosen set.  M(0, j)
outputs its state, the atomic facts of its j sets: per set the popcount
capped at 2, per ordered pair the ⊆ and ⊑ flags.  M(r+1, j) is the subset
construction that erases M(r, j+1)'s last track, and a subset outputs the
set of its members' outputs, the rank-(r+1) type.  Built on first use by the
compiler's subset construction and Moore refinement, each machine is
minimized on its outputs, and M(k, 0)'s lasso types every size.

Past two rounds the machines grow too large (M(1, 2) alone has 21 690
states), and a memoized minimax over agreeing positions searches the game.
An element's code packs its facts against the chosen tuple, and Duplicator
answers a pick with the elements of its code.  Structures of equal size are a Duplicator
win at once (copy every move), and with one round left Duplicator wins
exactly when both sides realize the same set of codes.  One memo holds
positions and code sets.  ``memo_budget`` bounds the search's work, counted
as memo entries plus each Spoiler pick's number of candidate answers.  A
structure of more than 20 atoms is refused at every round count, since
every array the search makes has one entry per element, 2^n of them.
"""

from __future__ import annotations

import functools
from itertools import permutations

import numpy as np

from .automata import DEFAULT_STATE_CAP, _explore, _moore, _subsets
from .model import FiniteModel, ResourceLimitError, _tables

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
    es = _tables(model.n)[0]
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


def _atomic_step(state: tuple, letter: int) -> tuple:
    """M(0, j) reading one atom; letter bit i says whether set i holds it."""
    pops, subs, exles = state
    bit = [letter >> i & 1 == 1 for i in range(len(pops))]
    pairs = list(permutations(range(len(pops)), 2))
    return (tuple(min(p + b, 2) for p, b in zip(pops, bit)),
            tuple(s and (bit[y] or not bit[x])
                  for s, (x, y) in zip(subs, pairs)),
            tuple(e or (bit[y] and pops[x] > 0)
                  for e, (x, y) in zip(exles, pairs)))


@functools.cache
def _machine(r: int, j: int) -> tuple[tuple, tuple[int, ...]]:
    """M(r, j): rows from state 0, and one output id per state."""
    stage = ("type machine", f"{r} rounds, {j} tracks")
    if r == 0:
        start = ((0,) * j, (True,) * (j * j - j), (False,) * (j * j - j))
        outs, rows = _explore(
            start, lambda q: [_atomic_step(q, a) for a in range(1 << j)],
            DEFAULT_STATE_CAP, stage)
    else:
        below, below_outs = _machine(r - 1, j + 1)
        masks, rows = _subsets(below, 0, j, DEFAULT_STATE_CAP, stage)
        outs = [frozenset(o for s, o in enumerate(below_outs) if mask >> s & 1)
                for mask in masks]
    reps, rows = _moore(rows, 0, outs)
    ids = {o: i for i, o in enumerate(dict.fromkeys(outs[s] for s in reps))}
    return tuple(rows), tuple(ids[outs[s]] for s in reps)


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
        if self.models[0].n == self.models[1].n and a == b:
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
    if k <= 2:
        # M(k, 0) numbers its lasso in order; later sizes wrap onto the cycle
        rows, types = _machine(k, 0)
        tail = rows[-1][0]
        won = len({types[min(n, tail + (n - tail) % (len(rows) - tail))]
                   for n in (left.n, right.n)}) == 1
    else:
        won = _Solver(left, right, k, memo_budget).duplicator_wins((), (), k)
    return DUPLICATOR if won else SPOILER


def ef_equiv(m: int, n: int, k: int, *,
             memo_budget: int = DEFAULT_MEMO_BUDGET) -> bool:
    """Are the size-m and size-n structures indistinguishable in k rounds?"""
    return ef_winner(FiniteModel(m), FiniteModel(n), k,
                     memo_budget=memo_budget) == DUPLICATOR
