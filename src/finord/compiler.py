"""Translate formulas to word automata, and read off sentence spectra.

A word of length n over {0,1}^w stands for the n-atom order together with
one subset of positions per track.  Compilation is structural: an atomic
formula's automaton explores the fact step (``automata._fact_step``) and
is minimized on the fact it states, every binary connective is one
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
from .automata import DEFAULT_STATE_CAP, Dfa, effective_state_cap
from .formula.nodes import (_MAX_DESUGARED_DEPTH, And, At, Binder, Exle,
                            FalseF, Formula, Iff, Implies, Not, Or, Relation,
                            SetVar, Subset, TrueF, _check_nesting, rebuild,
                            subformulas, summary, terms_of)
from .formula.builders import conj, disj
from .formula.sugar import desugar
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
    number positions[i] (None for bot, one more set that no letter holds):
    the fact step, minimized on the fact the relation states.  The few
    shapes are built once and relabelled by ``base_automaton``."""
    width = len(set(positions) - {None})
    args = [width if p is None else p for p in positions]
    x, y = args[0], args[-1]
    states, rows = au._explore(
        au._fact_start(width + 1),
        lambda q: [au._fact_step(q, a) for a in range(1 << width)],
        DEFAULT_STATE_CAP, ("atomic automaton", kind.__name__))
    holds = [pops[x] == 1 if kind is At else exle[x][y] if kind is Exle
             else sub[x][y] and (kind is Subset or sub[y][x])
             for pops, sub, exle in states]
    reps, rows = au._moore(rows, 0, holds)
    return Dfa(tuple(f"T{j}" for j in range(width)), rows,
               frozenset(i for i, s in enumerate(reps) if holds[s]))


def compile(f: Formula, *, cap: int | None = None) -> Dfa:
    """Automaton whose words over the free variables' tracks are exactly
    the satisfying assignments; requires a desugared input, nested no
    deeper than what ``desugar`` makes of parsed text."""
    s = summary(f)
    if s.sugared:
        raise ValueError("compile requires a desugared formula")
    _check_nesting("formula", s.depth, _MAX_DESUGARED_DEPTH)
    return _compiled(f, effective_state_cap(cap))


def spectrum(f: Formula) -> UPSet:
    """The canonical ultimately periodic set of model sizes satisfying the
    sentence f (surface sugar allowed), cached apart from ``compile``;
    ``desugar`` refuses one nested past the parser's limit uncached."""
    if summary(f).free:
        raise ValueError("spectrum requires a sentence")
    return _spectrum(f, effective_state_cap())


# Above the distinct sentences any one workload or test run touches.
_CACHE_SIZE = 4096


@lru_cache(maxsize=_CACHE_SIZE)
def _compiled(f: Formula, cap: int) -> Dfa:
    return _compile(_miniscope(f), cap)


@lru_cache(maxsize=_CACHE_SIZE)
def _spectrum(f: Formula, cap: int) -> UPSet:
    return au.lasso_spectrum(_compile(_miniscope(desugar(f)), cap))


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

