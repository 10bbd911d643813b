"""Property tests of the formula layer on generated formulas.

The formulas have free set variables, set binders that shadow them or
take names of the X0, X1, ... shape desugaring draws from, atom binders
that reuse a name in scope, and min/max inside membership and the other
atomic formulas.
"""

from contextlib import suppress

from hypothesis import given, settings
from hypothesis import strategies as st

from finord import (FALSE, MAX, MIN, TRUE, And, At, AtomVar, Bot, Eq,
                    ExistsAtom, ExistsSet, Exle, FiniteModel, ForallAtom,
                    ForallSet, Iff, Implies, Mem, Not, Or, SetVar, Subset,
                    desugar, format_formula, free_set_vars, is_desugared,
                    parse, slow_evaluate)

SET_NAMES = ("X", "Y", "X0")
ATOM_NAMES = ("x", "y")


@st.composite
def atomics(draw, atoms):
    elems = [AtomVar(a) for a in sorted(atoms)] + [MIN, MAX]
    sets = [SetVar(n) for n in SET_NAMES] + [Bot()]
    kind = draw(st.sampled_from(("const", "mem", "at", "eq", "sub", "exle")))
    if kind == "const":
        return draw(st.sampled_from((TRUE, FALSE)))
    if kind == "mem":
        return Mem(draw(st.sampled_from(elems)), draw(st.sampled_from(sets)))
    pool = st.sampled_from(sets + elems)
    if kind == "at":
        return At(draw(pool))
    node = {"eq": Eq, "sub": Subset, "exle": Exle}[kind]
    return node(draw(pool), draw(pool))


@st.composite
def formulas(draw, depth=3, atoms=frozenset()):
    kinds = ("atomic",) if depth == 0 else \
        ("atomic", "not", "binary", "atom binder", "set binder")
    kind = draw(st.sampled_from(kinds))
    if kind == "atomic":
        return draw(atomics(atoms))
    if kind == "not":
        return Not(draw(formulas(depth - 1, atoms)))
    if kind == "binary":
        node = draw(st.sampled_from((And, Or, Implies, Iff)))
        return node(draw(formulas(depth - 1, atoms)),
                    draw(formulas(depth - 1, atoms)))
    if kind == "atom binder":
        name = draw(st.sampled_from(ATOM_NAMES))
        node = draw(st.sampled_from((ExistsAtom, ForallAtom)))
        return node(name, draw(formulas(depth - 1, atoms | {name})))
    name = draw(st.sampled_from(SET_NAMES))
    node = draw(st.sampled_from((ExistsSet, ForallSet)))
    return node(name, draw(formulas(depth - 1, atoms)))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_print_parse_roundtrip(f):
    assert parse(format_formula(f)) == f


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_desugar_is_complete_and_idempotent(f):
    d = desugar(f)
    assert is_desugared(d)
    assert desugar(d) == d


@settings(max_examples=100, deadline=None)
@given(formulas(), st.data())
def test_desugar_preserves_truth(f, data):
    d = desugar(f)
    names = sorted(free_set_vars(f))
    for n in range(4):
        env = {v: data.draw(st.integers(0, (1 << n) - 1), label=v)
               for v in names}
        m = FiniteModel(n)
        assert slow_evaluate(m, f, env) == slow_evaluate(m, d, env), (n, env)


KEYWORDS = ("true", "false", "bot", "min", "max", "at", "sub",
            "ex1", "ex2", "all1", "all2")
# keywords, well-formed names, and short texts over characters at the edge
# of the name syntax: non-ASCII letters, digits, underscores, whitespace
NAMES = st.one_of(st.sampled_from(KEYWORDS),
                  st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True),
                  st.text(alphabet="aZ0_é\u00aa \n.", max_size=4),
                  st.text(max_size=4))


@settings(max_examples=500, deadline=None)
@given(NAMES)
def test_accepted_names_reparse(name):
    accepted = []
    for var, binders, term in ((SetVar, (ExistsSet, ForallSet), Bot()),
                               (AtomVar, (ExistsAtom, ForallAtom), MIN)):
        with suppress(ValueError):
            accepted.append(Eq(var(name), term))
        for binder in binders:
            with suppress(ValueError):
                accepted.append(binder(name, TRUE))
    for f in accepted:
        assert parse(format_formula(f)) == f
    if name in KEYWORDS:
        assert not accepted
