"""Translate formulas to word automata, and read off sentence spectra.

A word of length n over {0,1}^w stands for the n-atom order together with
one subset of positions per track.  Compilation is structural: an atomic
formula's automaton explores the fact step (``automata._fact_step``) and
is minimized on the fact it states, every binary connective is one
product (``automata.combine``), and a set quantifier projects its
variable's track away, existentially or universally (one subset
construction either way), so a binder that reuses a name needs no renaming.
Each compile builds a connective or binder once per shape, its form up to
renaming (``_Shapes``: bound variables go by binder, free ones by first
occurrence); letter bits follow the sorted track names, so a later node of
that shape relabels the first's automaton when its names keep the tracks'
order, and is built afresh when they reorder them.  The memo ends with the
call; only ``spectrum`` keeps answers across calls.
Before compiling, quantifiers are miniscoped: a universal is pushed through
the conjuncts of its body and an existential through the disjuncts, and
the links of a binder's body that do not mention its variable move outside
it (an existential's conjuncts, a universal's disjuncts and antecedents),
so each projection works on an automaton with fewer tracks.  That pass
adds every node it keeps or builds to the shapes, whose free variables
tell which links move.  For a sentence the result has no tracks, and its
accepted lengths — extracted from the unary transition lasso — are
exactly the model sizes satisfying the sentence.  Only ``automata._explore``
reads the state cap, so ``spectrum``'s memo is keyed by the formula alone.
"""

from __future__ import annotations

from functools import cache, lru_cache
from operator import is_

from . import automata as au
from .automata import Dfa, effective_state_cap
from .formula.nodes import (And, At, Binary, Binder, Exle, FalseF, Formula,
                            Iff, Implies, Not, Or, Relation, SetVar, Subset,
                            TrueF, Variable, _check_nesting, rebuild,
                            subformulas, summary, terms_of)
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
        ("atomic automaton", kind.__name__))
    holds = [pops[x] == 1 if kind is At else exle[x][y] if kind is Exle
             else sub[x][y] and (kind is Subset or sub[y][x])
             for pops, sub, exle in states]
    return au._minimal(tuple(f"T{j}" for j in range(width)), rows, 0, holds)


def compile(f: Formula) -> Dfa:
    """Automaton whose words over the free variables' tracks are exactly
    the satisfying assignments; requires a desugared input, nested no
    deeper than what ``desugar`` makes of parsed text.  Not memoized."""
    s = summary(f)
    if s.sugared:
        raise ValueError("compile requires a desugared formula")
    _check_nesting("formula", s.depth)
    return _scoped(f)


def spectrum(f: Formula) -> UPSet:
    """The canonical ultimately periodic set of model sizes satisfying the
    sentence f (surface sugar allowed), memoized; ``desugar`` refuses,
    uncached, one it could desugar past 308 levels."""
    if summary(f).free:
        raise ValueError("spectrum requires a sentence")
    return _spectrum(f)


# Above the distinct sentences any one workload or test run touches.
@lru_cache(maxsize=4096)
def _spectrum(f: Formula) -> UPSet:
    return au.lasso_spectrum(_scoped(desugar(f)))


def clear_caches() -> None:
    """Drop memoized spectra and the state cap's reading."""
    _spectrum.cache_clear()
    effective_state_cap.cache_clear()


def _scoped(f: Formula) -> Dfa:
    shapes = _Shapes()
    return _compile(_miniscope(f, shapes), shapes)


def _compile(f: Formula, shapes: _Shapes | None = None) -> Dfa:
    """The automaton of f, made once per repeated shape within the call;
    shapes, when given, holds f's nodes already."""
    shapes = _Shapes(f) if shapes is None else shapes
    of, repeated, memo = shapes.of, shapes.repeated, {}

    def walk(g: Formula) -> Dfa:
        shape, names, _ = of[id(g)]
        if shape in memo:
            # a renaming that keeps the tracks in order keeps the letters
            a, where = memo[shape]
            tracks = [names[i] for i in where]
            if tracks == sorted(tracks):
                return Dfa(tracks, a.transitions, a.accepting)
        if isinstance(g, (TrueF, FalseF)):
            return Dfa((), ((0,),), frozenset([0] if type(g) is TrueF else []))
        if isinstance(g, (Relation, At)):
            return base_automaton(g)
        if isinstance(g, Not):
            a = au.complement(walk(g.body))
        elif type(g) in _CONNECTIVES:
            a = au.combine(walk(g.left), walk(g.right), _CONNECTIVES[type(g)])
        elif isinstance(g, Binder) and g.over_sets:
            # ∀ accepts a subset of states when all of them accept
            a = walk(g.body)
            if g.var in a.tracks:
                a = (au.project(a, g.var) if g.exists
                     else au._project(a, g.var, False))
        else:
            raise ValueError(f"cannot compile node {type(g).__name__}")
        if shape in repeated:
            # with each track's place in first-occurrence order
            memo[shape] = a, [names.index(t) for t in a.tracks]
        return a

    return walk(f)


class _Shapes:
    """Each node's shape (an int) and free variables in first-occurrence
    order, by ``id``, and the shapes that occur again.  A shape is interned
    from the node's type, its children's shapes and where their free
    variables fall among the node's, so a node is added after its children;
    it is kept with them, so that its id stays its own.  Given a formula,
    every node of it is added, leaves first and without recursion."""

    def __init__(self, f: Formula | None = None):
        self.of, self.interned, self.repeated = {}, {}, set()
        order = [] if f is None else [f]
        for g in order:
            order += subformulas(g)
        for g in reversed(order):
            self.add(g)

    def add(self, g: Formula) -> Formula:
        of = self.of
        if isinstance(g, Binary):
            (left, first, _), (right, then, _) = of[id(g.left)], of[id(g.right)]
            names = first if then == first else tuple(
                dict.fromkeys(first + then))
            key = (type(g), left, right, *map(names.index, then))
        elif isinstance(g, Binder):
            shape, free, _ = of[id(g.body)]
            names = tuple(filter(g.var.__ne__, free))
            key = (type(g), shape, free.index(g.var) if g.var in free else -1)
        elif isinstance(g, Not):
            shape, names, _ = of[id(g.body)]
            key = (Not, shape)
        else:
            key, names = [type(g)], ()
            for t in terms_of(g):
                if isinstance(t, Variable):
                    if t.name not in names:
                        names += (t.name,)
                    t = names.index(t.name)
                key.append(t)
            key = tuple(key)
        n = len(self.interned)
        shape = self.interned.setdefault(key, n)
        if shape < n:
            self.repeated.add(shape)
        of[id(g)] = shape, names, g
        return g


def _miniscope(f: Formula, shapes: _Shapes | None = None) -> Formula:
    """Move set quantifiers inward.  An existential distributes over the
    disjuncts of its body and a universal over the conjuncts (through an
    implication's consequent too).  Each piece is then split into links,
    an existential's along its And chain and a universal's along its Or
    chain, where A -> B reads as ~A | B and each conjunct of A is a link.
    The links that do not mention the variable move outside the binder:
    ex2 X. (P & Q(X)) becomes P & ex2 X. Q(X), and all2 X. (A -> B(X))
    becomes A -> all2 X. B(X).  Beside an antecedent that mentions the
    variable the consequent stays whole, so a guard keeps what it guards:
    all2 X. (at(X) -> P) stays as it is.  A binder whose links all leave
    is dropped, which is sound at every model size: even n = 0 has one
    subset to range over.  Every node of the result, and every node built
    on the way, is added to shapes as it is built, so each link's free
    variables are read there, not walked again."""
    shapes = _Shapes() if shapes is None else shapes
    add, of = shapes.add, shapes.of

    def make(cls, *fields) -> Formula:
        return add(cls(*fields))

    def join(cls, parts: list[Formula]) -> Formula:
        g = parts[0]
        for h in parts[1:]:
            g = make(cls, g, h)
        return g

    def conjuncts(g: Formula) -> list[Formula]:
        if isinstance(g, And):
            return conjuncts(g.left) + conjuncts(g.right)
        if isinstance(g, Implies):
            parts = conjuncts(g.right)
            if len(parts) > 1:
                return [make(Implies, g.left, h) for h in parts]
        return [g]

    def bind(g: Binder, body: Formula) -> Formula:
        link = And if g.exists else Or
        pieces = []
        for p in _chain(body, Or) if g.exists else conjuncts(body):
            ants: list[Formula] = []
            alts = _chain(p, link, None if g.exists else ants)
            ants_in, ants_out, alts_in, alts_out = [], [], [], []
            for h in ants:
                (ants_in if g.var in of[id(h)][1] else ants_out).append(h)
            for h in alts:
                # beside an antecedent that mentions the variable, the
                # consequent stays whole
                (alts_in if ants_in or g.var in of[id(h)][1]
                 else alts_out).append(h)
            if not ants_out and not alts_out:
                pieces.append(add(g) if p is g.body
                              else make(type(g), g.var, p))
            elif not ants_in and not alts_in:
                pieces.append(p)
            else:
                # a chain ends in a link that is no antecedent
                inner = join(link, alts_in)
                if ants_in:
                    inner = make(Implies, join(And, ants_in), inner)
                h = join(link, alts_out + [make(type(g), g.var, inner)])
                pieces.append(make(Implies, join(And, ants_out), h)
                              if ants_out else h)
        return join(Or if g.exists else And, pieces)

    def scope(g: Formula) -> Formula:
        kids = subformulas(g)
        if not kids:
            return add(g)
        new = tuple(map(scope, kids))
        if isinstance(g, Binder) and g.over_sets:
            return bind(g, new[0])
        return add(g if all(map(is_, new, kids)) else rebuild(g, new))

    return scope(f)


def _chain(f: Formula, link: type, ants: list | None = None) -> list[Formula]:
    """The links of f's chain of link nodes (And or Or), left to right.
    Given a list ants, an implication A -> B in an Or chain is read as
    ~A | B: the conjuncts of A go to ants and the chain goes on in B."""
    links, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is link:
            stack += (g.right, g.left)
        elif ants is not None and type(g) is Implies:
            ants += _chain(g.left, And)
            stack.append(g.right)
        else:
            links.append(g)
    return links
