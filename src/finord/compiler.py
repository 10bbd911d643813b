"""Translate formulas to word automata, and read off sentence spectra.

A word of length n over {0,1}^w stands for the n-atom order together with
one subset of positions per track.  Compilation is structural: an atomic
formula's automaton explores the fact step (``automata._fact_step``) and
is minimized on the fact it states, every binary connective is one
product (``automata.combine``), and a set quantifier projects its
variable's track away (universal quantification via double complement),
so a binder that reuses a name needs no renaming.
Each compile builds a connective or binder once per shape, its form up to
renaming (``_shapes``: bound variables go by binder, free ones by first
occurrence); a later node of that shape renames the tracks of the automaton
kept for the first (``automata._rename``), and the memo ends with the call.
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
from .formula.nodes import (_MAX_DESUGARED_DEPTH, And, At, Binary, Binder,
                            Exle, FalseF, Formula, Iff, Implies, Not, Or,
                            Relation, SetVar, Subset, TrueF, Variable,
                            _check_nesting, rebuild, subformulas, summary,
                            terms_of)
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
    ``desugar`` refuses, uncached, one it could desugar past 308 levels."""
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
    (shapes, repeated), memo = _shapes(f), {}

    def walk(g: Formula) -> Dfa:
        shape, names = shapes[id(g)]
        if shape in memo:
            a, where = memo[shape]
            return au._rename(a, [names[i] for i in where])
        if isinstance(g, (TrueF, FalseF)):
            return Dfa((), ((0,),), frozenset([0] if type(g) is TrueF else []))
        if isinstance(g, (Relation, At)):
            return base_automaton(g)
        if isinstance(g, Not):
            a = au.complement(walk(g.body))
        elif type(g) in _CONNECTIVES:
            a = au.combine(walk(g.left), walk(g.right),
                           _CONNECTIVES[type(g)], cap=cap)
        elif isinstance(g, Binder) and g.over_sets:
            # ∀ is the complement of ∃ over the complement
            a = walk(g.body)
            if g.var in a.tracks:
                a = au.project(a if g.exists else au.complement(a), g.var,
                               cap=cap)
                a = a if g.exists else au.complement(a)
        else:
            raise ValueError(f"cannot compile node {type(g).__name__}")
        if shape in repeated:
            # with each track's place in first-occurrence order
            memo[shape] = a, [names.index(t) for t in a.tracks]
        return a

    return walk(f)


def _shapes(f: Formula):
    """Each node's shape (an int) and free variables in first-occurrence
    order, by ``id``, and the shapes that occur again.  A shape is interned
    from the node's type, its children's shapes and where their free
    variables fall among the node's, leaves first and without recursion."""
    order = [f]
    for g in order:
        order += subformulas(g)
    out, interned, repeated = {}, {}, set()
    for g in reversed(order):
        if isinstance(g, Binary):
            (left, first), (right, then) = out[id(g.left)], out[id(g.right)]
            names = first + tuple(v for v in then if v not in first)
            key = (type(g), left, right, *map(names.index, then))
        elif isinstance(g, Binder):
            shape, free = out[id(g.body)]
            names = tuple(v for v in free if v != g.var)
            key = (type(g), shape, free.index(g.var) if g.var in free else -1)
        elif isinstance(g, Not):
            shape, names = out[id(g.body)]
            key = (Not, shape)
        else:
            terms = terms_of(g)
            names = tuple(dict.fromkeys(
                t.name for t in terms if isinstance(t, Variable)))
            key = (type(g), *(names.index(t.name) if isinstance(t, Variable)
                              else t for t in terms))
        n = len(interned)
        shape = interned.setdefault(key, n)
        if shape < n:
            repeated.add(shape)
        out[id(g)] = shape, names
    return out, repeated


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

