"""Translate formulas to word automata, and read off sentence spectra.

A word of length n over {0,1}^w stands for the n-atom order together with
one subset of positions per track.  Compilation is structural: atomic
formulas get small hand-built automata, every binary connective is one
product (``automata.combine``), and a set quantifier projects its
variable's track away (universal quantification via double complement),
so a binder that reuses a name needs no renaming.
Before compiling, quantifiers are miniscoped: a universal is pushed through
the conjuncts of its body and an existential through the disjuncts, so each
projection works on an automaton with fewer tracks.  For a sentence the
result has no tracks, and its accepted lengths — extracted from the unary
transition lasso — are exactly the model sizes satisfying the sentence.
"""

from __future__ import annotations

from functools import cache, lru_cache

from . import automata as au
from .automata import Dfa, effective_state_cap
from .formula.nodes import (And, At, Binder, Eq, Exle, FalseF, Formula, Iff,
                            Implies, Not, Or, Relation, SetVar, TrueF,
                            _check_nesting, rebuild, subformulas, summary,
                            terms_of)
from .formula.builders import conj, disj
from .formula.sugar import desugar, is_desugared
from .upsets import UPSet

_CONNECTIVES = {And: "and", Or: "or", Implies: "implies", Iff: "iff"}


def base_automaton(atomic: Formula) -> Dfa:
    """Minimal complete DFA for one relational atomic formula over set
    variables and the empty-set constant."""
    if not isinstance(atomic, (Relation, At)):
        raise ValueError(f"unsupported atomic form: {atomic!r}")
    terms = terms_of(atomic)
    for t in terms:
        if not t.set_sorted:
            raise ValueError(f"unsupported term in atomic formula: {t!r}")
    tracks = tuple(sorted({t.name for t in terms if isinstance(t, SetVar)}))
    shape = _shape_automaton(type(atomic), tuple(
        tracks.index(t.name) if isinstance(t, SetVar) else None
        for t in terms))
    return Dfa(tracks, shape.transitions, shape.accepting)


@cache
def _shape_automaton(kind: type, positions: tuple) -> Dfa:
    """The automaton of an atomic relation whose i-th term reads track
    number positions[i] (None for bot), over placeholder track names; the
    few shapes are built once and relabelled by ``base_automaton``."""
    tracks = tuple(f"T{j}" for j in range(len(set(positions) - {None})))

    def bit(pos):
        if pos is None:
            return lambda letter: 0
        return lambda letter: (letter >> pos) & 1

    size = 1 << len(tracks)
    if kind is At:
        x = bit(positions[0])
        # 0 = no member yet, 1 = exactly one (accept), 2 = too many
        rows = (tuple(1 if x(l) else 0 for l in range(size)),
                tuple(2 if x(l) else 1 for l in range(size)),
                tuple(2 for _ in range(size)))
        return au.minimize(Dfa(tracks, rows, frozenset([1])))
    x, y = bit(positions[0]), bit(positions[1])
    if kind is Exle:
        # 0 = left side still empty, 1 = left member seen, 2 = accept;
        # a shared position never accepts (the underlying order is strict)
        rows = (tuple(1 if x(l) else 0 for l in range(size)),
                tuple(2 if y(l) else 1 for l in range(size)),
                tuple(2 for _ in range(size)))
        return au.minimize(Dfa(tracks, rows, frozenset([2])))
    if kind is Eq:
        ok = [x(l) == y(l) for l in range(size)]
    else:  # Subset
        ok = [x(l) <= y(l) for l in range(size)]
    rows = (tuple(0 if ok[l] else 1 for l in range(size)),
            tuple(1 for _ in range(size)))
    return au.minimize(Dfa(tracks, rows, frozenset([0])))


def compile(f: Formula, *, cap: int | None = None) -> Dfa:
    """Automaton whose words over the free variables' tracks are exactly
    the satisfying assignments; requires a desugared input."""
    if not is_desugared(f):
        raise ValueError("compile requires a desugared formula")
    return _compiled(f, effective_state_cap(cap))


def spectrum(f: Formula, *, cap: int | None = None) -> UPSet:
    """The canonical ultimately periodic set of model sizes satisfying the
    sentence f (surface sugar allowed).  A sentence nested past the
    parser's limit is refused with ResourceLimitError before its cache key
    is hashed, which recurses."""
    s = summary(f)
    if s.free:
        raise ValueError("spectrum requires a sentence")
    _check_nesting("formula", s.depth)
    return _spectrum(f, effective_state_cap(cap))


# Above the distinct sentences any one workload or test run touches.
_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def _compiled(f: Formula, cap: int) -> Dfa:
    return _compile(_miniscope(f), cap)


@lru_cache(maxsize=_CACHE_SIZE)
def _spectrum(f: Formula, cap: int) -> UPSet:
    return au.lasso_spectrum(compile(desugar(f), cap=cap))


def clear_caches() -> None:
    """Drop memoized compilation results (for cold timing runs)."""
    _compiled.cache_clear()
    _spectrum.cache_clear()


def _compile(f: Formula, cap: int) -> Dfa:
    if isinstance(f, TrueF):
        return Dfa((), ((0,),), frozenset([0]))
    if isinstance(f, FalseF):
        return Dfa((), ((0,),), frozenset())
    if isinstance(f, (Relation, At)):
        return base_automaton(f)
    if isinstance(f, Not):
        return au.complement(_compile(f.body, cap))
    op = _CONNECTIVES.get(type(f))
    if op is not None:
        return au.combine(_compile(f.left, cap), _compile(f.right, cap), op,
                          cap=cap)
    if isinstance(f, Binder) and f.over_sets:
        # a universal is the complement of an existential over the complement
        body = _compile(f.body, cap)
        if not f.exists:
            body = au.complement(body)
        if f.var in body.tracks:
            body = au.project(body, f.var, cap=cap)
        return body if f.exists else au.complement(body)
    raise ValueError(f"cannot compile node {type(f).__name__}")


def _miniscope(f: Formula) -> Formula:
    """Push every set quantifier as far in as it distributes: a universal
    over the conjuncts of its body (through an implication's consequent
    too), an existential over the disjuncts.  Sound for every model size:
    even n = 0 has one subset to range over, so a quantifier left without
    its variable in a conjunct still means its body."""
    if isinstance(f, Binder) and f.over_sets:
        pieces, join = (_disjuncts, disj) if f.exists else (_conjuncts, conj)
        return join([type(f)(f.var, g) for g in pieces(_miniscope(f.body))])
    kids = subformulas(f)
    if kids:
        return rebuild(f, tuple(_miniscope(k) for k in kids))
    return f


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    if isinstance(f, Implies):
        return [Implies(f.left, g) for g in _conjuncts(f.right)]
    return [f]


def _disjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return _disjuncts(f.left) + _disjuncts(f.right)
    return [f]

