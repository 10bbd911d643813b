"""Elimination of surface sugar, and relativization of sentences.

Desugaring removes everything atom-sorted: membership X(x) becomes
at(x) & x sub X, an atom binder becomes a set binder over a fresh
uppercase name guarded by at(.), and each min/max occurrence inside an
atomic formula is replaced by a fresh guarded witness (an atom with no
atom strictly below, respectively above, it) scoped at that atomic
formula.  One pass does all of it, carrying a map from each atom-sorted
term in scope to the set variable that replaces it.  Fresh names come
from ``fresh_names``, which skips every identifier of the input; they are
drawn binder-first, so an outer binder gets a smaller number than the
binders inside its body.
"""

from __future__ import annotations

from .nodes import (And, At, AtomVar, Binder, Exle, ExistsSet, ForallSet,
                    Formula, Implies, MAX, MIN, Mem, Not, SetVar, Subset, Term,
                    _check_nesting, fresh_names, rebuild, subformulas,
                    summary, terms_of)


def is_desugared(f: Formula) -> bool:
    return not summary(f).sugared


def desugar(f: Formula) -> Formula:
    """f without sugar; a formula nested past the parser's limit is refused
    with ResourceLimitError."""
    s = summary(f)
    _check_nesting("formula", s.depth)
    return _desugar(f, fresh_names(s.names), {})


def _desugar(f: Formula, fresh, names: dict[Term, SetVar]) -> Formula:
    if isinstance(f, Binder) and not f.over_sets:
        v = SetVar(next(fresh))
        body = _desugar(f.body, fresh, {**names, AtomVar(f.var): v})
        if f.exists:
            return ExistsSet(v.name, And(At(v), body))
        return ForallSet(v.name, Implies(At(v), body))
    if isinstance(f, Mem):
        return _desugar(And(At(f.atom), Subset(f.atom, f.container)), fresh, names)
    kids = subformulas(f)
    if kids:
        return rebuild(f, tuple(_desugar(g, fresh, names) for g in kids))
    terms = terms_of(f)
    # each of min and max gets one guarded witness, min's outermost
    guards = []
    for c in (MIN, MAX):
        if c in terms:
            v = SetVar(next(fresh))
            names = {**names, c: v}
            guards.append((v, _endpoint_guard(v, fresh, smallest=c == MIN)))
    out = type(f)(*(names.get(t, t) for t in terms)) if terms else f
    for v, guard in reversed(guards):
        out = ExistsSet(v.name, And(guard, out))
    return out


def _endpoint_guard(v: SetVar, fresh, smallest: bool) -> Formula:
    w = SetVar(next(fresh))
    below = Exle(w, v) if smallest else Exle(v, w)
    return And(At(v), Not(ExistsSet(w.name, And(At(w), below))))


def relativize(f: Formula, var: str) -> Formula:
    """The desugared sentence f evaluated inside the downward-closed world
    of subsets of the set variable ``var``, which must not occur in f."""
    s = summary(f)
    if s.free:
        raise ValueError("relativization needs a sentence")
    if s.sugared:
        raise ValueError("relativization needs desugared input")
    return _rel(f, SetVar(var))


def _rel(f: Formula, bound: SetVar) -> Formula:
    if isinstance(f, Binder):
        if f.var == bound.name:
            raise ValueError(f"relativization variable {bound.name!r} occurs in the sentence")
        guard = Subset(SetVar(f.var), bound)
        link = And if f.exists else Implies
        return type(f)(f.var, link(guard, _rel(f.body, bound)))
    kids = subformulas(f)
    if kids:
        return rebuild(f, tuple(_rel(g, bound) for g in kids))
    return f
