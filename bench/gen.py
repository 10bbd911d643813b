"""Seeded inputs for the benchmark.

The random sentence generator lives here, apart from the test corpus, so
that edits to the tests never change what the benchmark measures.  Every
function is a pure function of its seed.
"""

from __future__ import annotations

import random

from finord.formula.nodes import (FALSE, MAX, MIN, TRUE, And, At, AtomVar,
                                  Bot, Eq, ExistsAtom, ExistsSet, Exle,
                                  ForallAtom, ForallSet, Formula, Iff,
                                  Implies, Mem, Not, Or, SetVar, Subset)

RANK = 3
MAX_LIVE_SETS = 3


def random_sentence(rng: random.Random, rank: int = RANK) -> Formula:
    """A closed formula of quantifier rank at most ``rank``."""
    return _formula(rng, rank, (), ())


def random_sentences(seed: int, count: int) -> list[Formula]:
    rng = random.Random(seed)
    return [random_sentence(rng) for _ in range(count)]


def _formula(rng, rank, sets, atoms) -> Formula:
    if rank == 0 or rng.random() < 0.2:
        return _boolean(rng, sets, atoms)
    roll = rng.random()
    if roll < 0.4 and len(sets) < MAX_LIVE_SETS:
        name = f"S{len(sets)}"
        body = _formula(rng, rank - 1, sets + (name,), atoms)
        return rng.choice((ExistsSet, ForallSet))(name, body)
    if roll < 0.8:
        name = f"a{len(atoms)}"
        body = _formula(rng, rank - 1, sets, atoms + (name,))
        return rng.choice((ExistsAtom, ForallAtom))(name, body)
    left = _formula(rng, rank - 1, sets, atoms)
    right = _formula(rng, rank - 1, sets, atoms)
    return rng.choice((And, Or, Implies, Iff))(left, right)


def _boolean(rng, sets, atoms) -> Formula:
    out = _atomic(rng, sets, atoms)
    for _ in range(2):
        if rng.random() >= 0.35:
            break
        other = _atomic(rng, sets, atoms)
        out = rng.choice((And, Or, Implies, Iff))(out, other)
    if rng.random() < 0.25:
        out = Not(out)
    return out


def _atomic(rng, sets, atoms) -> Formula:
    roll = rng.random()
    if roll < 0.05:
        return rng.choice((TRUE, FALSE))
    set_terms = [SetVar(v) for v in sets] + [Bot()]
    atom_terms = [AtomVar(v) for v in atoms]
    if roll < 0.3 and atom_terms:
        return Mem(rng.choice(atom_terms), rng.choice(set_terms))
    pool = set_terms + atom_terms + [MIN, MAX]
    left, right = rng.choice(pool), rng.choice(pool)
    kind = rng.randrange(4)
    if kind == 0:
        return Eq(left, right)
    if kind == 1:
        return Subset(left, right)
    if kind == 2:
        return Exle(left, right)
    return At(left)
