"""Solvers for the unnested k-round comparison game between two finite
power-set structures.

Each round the first player (Spoiler) picks any element of either structure
and the second player (Duplicator) answers with an element of the other; the
second player wins when, after all rounds, every unnested atomic fact — the
forms X=Y, X⊆Y, X⊑Y, At(X), and every variant with ⊥ for an argument —
holds of the left tuple exactly as of the right tuple.

Games of at most two rounds are read off type machines: Moore machines over
words with one letter per atom and one track per chosen set.  M(0, j)
explores the compiler's fact step and outputs its state, the atomic facts
of its j sets (``automata._fact_step``).  M(r+1, j) is the subset
construction that erases M(r, j+1)'s last track, and a subset outputs the
set of its members' outputs, the rank-(r+1) type.  Built on first use by the
compiler's subset construction and Moore refinement, under the state cap
that ``automata._explore`` reads for every automaton, each machine is
minimized on its outputs, and M(k, 0)'s lasso types every size.

Past two rounds the machines grow too large (M(1, 2) alone has 21 690
states), and a memoized minimax over agreeing positions searches the game.
An element's code packs its facts against the chosen tuple, and Duplicator
answers a pick with the elements of its code.  A pick c appends the bits
e = c, e ⊆ c, c ⊆ e, e ⊑ c, c ⊑ e to each e's code, so a memo miss extends
the codes its parent passes down.  Spoiler never picks ⊥ or an entry of his
own tuple: the forced answer adds no fact, and Duplicator wins the position
with a round fewer when she wins every other pick (wins are monotone in the
rounds).  Equal sizes are a Duplicator win at once (copy every move), and
with one round left Duplicator wins exactly when both sides realize the
same set of codes.  One memo holds positions and code sets; ``memo_budget``
bounds the search's work, memo entries plus each Spoiler pick's candidate
answers.  A structure of more than 20 atoms is refused at every round
count, since every array the search makes has one entry per element.
"""

from __future__ import annotations

import functools

import numpy as np

from .automata import _explore, _fact_start, _fact_step, _moore, _subsets
from .formula.nodes import ResourceLimitError
from .model import FiniteModel, _tables

SPOILER = "Spoiler"
DUPLICATOR = "Duplicator"

# memo entries plus candidate answers; in 3 rounds 7 and 8 atoms spend
# 40 401, 9 and 10 spend 2 974 684 (2 s), and 10 and 11 are refused (6.5 s)
DEFAULT_MEMO_BUDGET = 2 ** 24
# each side's codes are one int64 per element: 16 MiB at 21 atoms, 2 GiB at 28
_MAX_ATOMS = 20


def _codes(model: FiniteModel, t: tuple[int, ...],
           codes: np.ndarray | None = None) -> np.ndarray:
    """Each element e's facts against t, extending codes, e's facts against
    the entries before t (by default: e = ⊥, At(e), e ⊑ e).  An entry c
    appends e = c, e ⊆ c, c ⊆ e, e ⊑ c, c ⊑ e; the ⊥-variant atoms reduce to
    the unary facts (e ⊆ ⊥ iff e = ⊥, ⊥ ⊆ e always, ⊑ and At with ⊥ never)."""
    es, _, lo, hi, pop = _tables(model.n)
    if codes is None:
        codes = (es == 0) * 4 + (pop == 1) * 2 + (lo < hi)
    for c in t:
        # ⊥'s code is the largest (e = ⊥ leads): past 12 entries, Python ints
        if codes.dtype != object and codes[0] >> 58:
            codes = codes.astype(object)
        codes = (codes * 32 + (es == c) * 16 + ((es & ~c) == 0) * 8
                 + ((c & ~es) == 0) * 4 + (lo < hi[c]) * 2 + (lo[c] < hi))
    return codes


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
    # each entry's code against the whole tuple holds its facts with the others
    codes = _codes(left, a_tuple), _codes(right, b_tuple)
    return all(codes[0][a] == codes[1][b] for a, b in zip(a_tuple, b_tuple))


@functools.cache
def _machine(r: int, j: int) -> tuple[tuple, tuple[int, ...]]:
    """M(r, j): rows from state 0, and one output id per state."""
    stage = ("type machine", f"{r} rounds, {j} tracks")
    if r == 0:
        outs, rows = _explore(_fact_start(j), lambda q: [
            _fact_step(q, a) for a in range(1 << j)], stage)
    else:
        below, below_outs = _machine(r - 1, j + 1)
        masks, rows = _subsets(below, 0, j, stage)
        outs = [frozenset(o for s, o in enumerate(below_outs) if mask >> s & 1)
                for mask in masks]
    reps, rows = _moore(rows, 0, outs)
    ids = {o: i for i, o in enumerate(dict.fromkeys(outs[s] for s in reps))}
    return tuple(rows), tuple(ids[outs[s]] for s in reps)


class _Solver:
    """Memoized minimax over agreeing positions."""

    def __init__(self, left: FiniteModel, right: FiniteModel, rounds: int,
                 budget: int):
        self.models, self.game = (left, right), (rounds, left.n, right.n)
        self.budget, self.spent, self.memo = budget, 0, {}

    def _charge(self, work: int) -> None:
        self.spent += work
        if self.spent > self.budget:
            k, m, n = self.game
            raise ResourceLimitError(
                f"game search budget of {self.budget} memo entries and "
                f"candidate answers exceeded ({k} rounds on {m} and {n} atoms)")

    def duplicator_wins(self, a: tuple[int, ...], b: tuple[int, ...],
                        rounds: int, parents: tuple | None = None) -> bool:
        """Does Duplicator win from the agreeing position (a, b)?  A memo miss
        extends parents, the codes against a[:-1] and b[:-1]."""
        parents = parents or (*map(_codes, self.models, (a[:-1], b[:-1])),)
        if self.models[0].n == self.models[1].n and a == b:
            return True
        if rounds == 1:
            return self._entry((0, a), parents) == self._entry((1, b), parents)
        return self._entry((a, b, rounds), parents)

    def _entry(self, key: tuple, parents: tuple):
        """The memo entry for a position (a, b, rounds), its verdict, or for
        (side, t), the set of codes that side realizes against t."""
        hit = self.memo.get(key)
        if hit is None:
            self._charge(1)
            if len(key) == 2:
                side, t = key
                codes = _codes(self.models[side], t[-1:], parents[side])
                hit = tuple(np.unique(codes).tolist())
            else:
                a, b, rounds = key
                hit = self._search(a, b, rounds, *map(
                    _codes, self.models, (a[-1:], b[-1:]), parents))
            self.memo[key] = hit
        return hit

    def _search(self, a: tuple[int, ...], b: tuple[int, ...], rounds: int,
                left: np.ndarray, right: np.ndarray) -> bool:
        """Spoiler picks each left element, then each right one, save ⊥ and
        his own entries; Duplicator tries agreeing answers, smallest first."""
        wins, rest, up = self.duplicator_wins, rounds - 1, (left, right)

        def answers(codes, code):
            found = np.flatnonzero(codes == code).tolist()
            self._charge(len(found))
            return found

        skip_a, skip_b = {0, *a}, {0, *b}
        return (all(any(wins(a + (c,), b + (d,), rest, up)
                        for d in answers(right, code))
                    for c, code in enumerate(left.tolist()) if c not in skip_a)
                and all(any(wins(a + (d,), b + (c,), rest, up)
                            for d in answers(left, code))
                        for c, code in enumerate(right.tolist())
                        if c not in skip_b))


def ef_winner(left: FiniteModel, right: FiniteModel, k: int, *,
              memo_budget: int = DEFAULT_MEMO_BUDGET) -> str:
    """Winner of the k-round game with best play, SPOILER or DUPLICATOR."""
    if k < 0:
        raise ValueError("round count must be a natural")
    if left.n > _MAX_ATOMS or right.n > _MAX_ATOMS:
        raise ResourceLimitError(f"game structures of {left.n} and {right.n} "
                                 f"atoms exceed the limit of {_MAX_ATOMS}")
    if left.n != right.n and k > min(left.n, right.n):
        # Spoiler picks one atom more than the smaller order has
        return SPOILER
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
