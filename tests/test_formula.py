"""Formula layer: grammar roundtrips, sorts, sugar elimination, builders."""

import random

import pytest

from corpus import CORPUS, _random_sentence
from finord import (FALSE, MAX, MIN, TRUE, And, At, AtomVar, Bot, Eq,
                    ExistsAtom, ExistsSet, Exle, FiniteModel, ForallAtom,
                    ForallSet, Iff, Implies, Mem, Not, Or, ParseError,
                    SetVar, Subset, build_comp, build_psi, build_rho,
                    build_sum, conj, desugar, disj, evaluate,
                    format_formula, free_set_vars, free_vars, is_desugared,
                    is_sentence, parse, relativize, slow_evaluate, spectrum)
from finord import cli
from finord.formula import parser
from finord.formula.nodes import (Binder, MaxAtom, MinAtom, Variable,
                                  subformulas, summary, terms_of)


def test_parse_basic_shapes():
    assert parse("bot sub X") == Subset(Bot(), SetVar("X"))
    assert parse("X = Y") == Eq(SetVar("X"), SetVar("Y"))
    assert parse("X << Y") == Exle(SetVar("X"), SetVar("Y"))
    assert parse("at(X)") == At(SetVar("X"))
    assert parse("X(x)") == Mem(AtomVar("x"), SetVar("X"))
    assert parse("bot(x)") == Mem(AtomVar("x"), Bot())
    assert parse("X(max)") == Mem(MAX, SetVar("X"))
    assert parse("bot(min)") == Mem(MIN, Bot())
    assert parse("ex1 x. true") == ExistsAtom("x", TRUE)
    assert parse("all2 X. false") == ForallSet("X", FALSE)
    assert parse("min sub max") == Subset(MIN, MAX)


def test_parse_precedence_and_associativity():
    f = parse("true & false | true")
    assert f == Or(And(TRUE, FALSE), TRUE)
    g = parse("true -> false -> true")
    assert g == Implies(TRUE, Implies(FALSE, TRUE))
    h = parse("~true & false")
    assert h == And(Not(TRUE), FALSE)
    i = parse("true <-> false | true")
    assert i == Iff(TRUE, Or(FALSE, TRUE))


def test_atom_order_sugar_normalizes():
    f = parse("ex1 x. ex1 y. x << y")
    g = parse("ex1 x. ex1 y. x < y")
    assert f == g
    assert " < " in format_formula(f)
    assert "<<" not in format_formula(f)


def test_parse_errors():
    for bad in ["ex2 x. true", "at X", "(true", "true false", "X sub",
                "ex1 X. true", "@", "all2. true", "X(Y)", ""]:
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize("text,wording,term", [
    ("min(x)", "set-sorted container", "min"),
    ("x(y)", "set-sorted container", "x"),
    ("X(Y)", "atom-sorted element", "Y"),
    ("bot(X)", "atom-sorted element", "X"),
])
def test_membership_sort_errors(text, wording, term):
    # reported at the container's offset, naming the term, not its repr
    with pytest.raises(ParseError, match=f"{wording}, got {term} ") as info:
        parse(f"true & ~{text}")
    assert info.value.position == len("true & ~")
    assert "(name=" not in str(info.value)


TOO_DEEP = {"negations": "~" * 3000 + "true",
            "parentheses": "(" * 200 + "true" + ")" * 200,
            "atom binders": "ex1 x. " * 200 + "true",
            # one binder, and one level, per name of the list
            "atom binder list": "ex1 " + " ".join(f"x{i}" for i in range(200))
                                + ". true",
            # each left-associative link nests the chain before it deeper
            "conjunction chain": " & ".join(["true"] * 3000),
            "disjunction chain": " | ".join(["X = X"] * 3000)}


@pytest.mark.parametrize("case", list(TOO_DEEP))
def test_too_deep_nesting_is_a_parse_error(case, capsys):
    text = TOO_DEEP[case]
    with pytest.raises(ParseError, match="nested deeper"):
        parse(text)
    for argv in (["eval", "--n", "2", text], ["spectrum", text]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "nested deeper" in err


def test_nesting_at_the_limit_parses_and_compiles():
    assert parse("(" * 150 + "true" + ")" * 150) == TRUE
    chain = parse(" & ".join(["true"] * 151))
    assert spectrum(chain) == spectrum(TRUE)
    assert evaluate(FiniteModel(2), chain)
    with pytest.raises(ParseError, match="nested deeper"):
        parse(" & ".join(["true"] * 152))
    # links count from the depth their chain starts at, and a chain's
    # operand keeps the links inside it
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 100 + " | ".join(["true"] * 52) + ")" * 100)
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" + " & ".join(["true"] * 100) + ")" + " & true" * 60)
    assert isinstance(parse("(" * 100 + " | ".join(["true"] * 51) + ")" * 100),
                      Or)
    psi = build_psi("eq", 40)
    assert parse(format_formula(psi)) == psi
    # an atom binder desugars to two nodes, the deepest shape per level
    chain = parse("".join(f"ex1 x{i}. " for i in range(150)) + "true")
    assert spectrum(chain) == spectrum(parse("ex1 x. true"))
    # a name list parses exactly when one binder per name does
    names = [f"x{i}" for i in range(151)]
    assert parse(f"ex1 {' '.join(names[:150])}. true") == chain
    with pytest.raises(ParseError, match="nested deeper"):
        parse("".join(f"ex1 {x}. " for x in names) + "true")
    with pytest.raises(ParseError, match="nested deeper"):
        parse(f"ex1 {' '.join(names)}. true")


def test_roundtrip_on_corpus():
    for name, f in CORPUS:
        text = format_formula(f)
        assert parse(text) == f, name


def test_check_sorts_rejects_misuse():
    # membership needs an atom-sorted element of a set-sorted container
    with pytest.raises(ValueError, match="atom-sorted element"):
        Mem(SetVar("X"), SetVar("Y"))
    with pytest.raises(ValueError, match="atom-sorted element"):
        ExistsSet("X", Mem(SetVar("X"), Bot()))
    with pytest.raises(ValueError, match="set-sorted container"):
        Mem(AtomVar("x"), AtomVar("y"))
    with pytest.raises(ValueError, match="set-sorted container"):
        Mem(MIN, MAX)
    for elem in (AtomVar("x"), MIN, MAX):
        for container in (SetVar("X"), Bot()):
            assert Mem(elem, container).container == container


def test_desugar_removes_all_sugar():
    for name, f in CORPUS:
        d = desugar(f)
        assert is_desugared(d), name
        assert is_sentence(d) == is_sentence(f), name


def test_desugar_fixed_point():
    for name, f in CORPUS[:12]:
        d = desugar(f)
        assert desugar(d) == d, name


def test_desugar_preserves_semantics():
    sugared = [parse("ex1 x. ex1 y. x < y"),
               parse("all1 x. X(x) -> at(min)"),
               parse("min << max"),
               parse("at(max) & bot sub min"),
               build_psi("gt", 1), build_rho(2, 2)]
    for f in sugared:
        d = desugar(f)
        fv = sorted(free_set_vars(f))
        for n in range(4):
            m = FiniteModel(n)
            for combo in range(1 << (len(fv) * n)):
                env = {v: (combo >> (i * n)) & ((1 << n) - 1)
                       for i, v in enumerate(fv)}
                assert slow_evaluate(m, f, env) == slow_evaluate(m, d, env)


def test_desugar_rebinds_a_shadowed_atom_name():
    # the inner binder reuses x: its body must see its own witness set
    f = parse("ex1 x. X(x) & (ex1 x. ~X(x))")
    d = desugar(f)
    for n in range(4):
        m = FiniteModel(n)
        truth = [slow_evaluate(m, f, {"X": x}) for x in range(1 << n)]
        assert [slow_evaluate(m, d, {"X": x}) for x in range(1 << n)] == truth
        if n == 2:
            assert truth == [False, True, True, False]


def _summary_by_recursion(f):
    """What ``summary`` finds, by direct recursion: free variables, names,
    sugar, and the nestings of set binders, of binders and of nodes."""
    if isinstance(f, Binder):
        free, names, sugared, sets, binders, depth = \
            _summary_by_recursion(f.body)
        return (free - {f.var}, names | {f.var}, sugared or not f.over_sets,
                sets + f.over_sets, binders + 1, depth + 1)
    kids = [_summary_by_recursion(g) for g in subformulas(f)]
    if kids:
        free, names, sugared, sets, binders, depth = zip(*kids)
        return (frozenset().union(*free), frozenset().union(*names),
                any(sugared), max(sets), max(binders), max(depth) + 1)
    terms = terms_of(f)
    names = frozenset(t.name for t in terms if isinstance(t, Variable))
    sugared = isinstance(f, Mem) or any(isinstance(t, (MinAtom, MaxAtom))
                                        for t in terms)
    return names, names, sugared, 0, 0, 0


def test_summary_matches_a_recursive_reference():
    # on every subformula of the corpus, of random formulas and of their
    # desugared forms
    rng = random.Random(5)
    formulas = [f for _, f in CORPUS]
    formulas += [_random_sentence(rng, 3, ("X",), ("y",)) for _ in range(200)]
    formulas += [desugar(f) for f in formulas]
    for f in formulas:
        stack = [f]
        while stack:
            g = stack.pop()
            stack += subformulas(g)
            assert tuple(summary(g)) == _summary_by_recursion(g), g
    f = parse("ex2 X. (ex1 x. all1 y. x << y) & ~(X = bot)")
    assert summary(f) == (frozenset(), frozenset("Xxy"), True, 1, 3, 4)
    chain = conj([TRUE] * 3000)
    assert summary(chain) == (frozenset(), frozenset(), False, 0, 0, 2999)


def test_free_vars():
    assert free_vars(parse("X sub Y")) == frozenset({"X", "Y"})
    assert free_vars(parse("ex2 X. X sub Y")) == frozenset({"Y"})
    assert free_vars(parse("X(x)")) == frozenset({"X", "x"})
    assert free_set_vars(parse("X(x)")) == frozenset({"X"})
    for name, f in CORPUS:
        assert is_sentence(f), name


def test_conj_disj_units():
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert conj([FALSE]) == FALSE
    assert disj([TRUE]) == TRUE


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_psi("either", 1)
    with pytest.raises(ValueError):
        build_psi("gt", -1)
    with pytest.raises(ValueError):
        build_rho(0, 1)
    with pytest.raises(ValueError):
        build_rho(3, 4)
    with pytest.raises(ValueError):
        build_rho(3, 0)
    with pytest.raises(ValueError):
        build_sum(parse("X = X"), TRUE)
    with pytest.raises(ValueError):
        build_comp(parse("X(x) & Y(x)"), "x", ["X"])


def test_names_the_tokenizer_refuses_are_refused():
    # both printed text that did not reparse: "ex1 at. at = min"
    with pytest.raises(ValueError, match="bad identifier"):
        ExistsAtom("at", Eq(AtomVar("x"), MIN))
    with pytest.raises(ValueError, match="bad identifier"):
        ExistsAtom("é", TRUE)
    for name in ("ex2", "sub", "X\n", "x-y", "_x", "1x", ""):
        with pytest.raises(ValueError, match="bad identifier"):
            SetVar(name) if name[:1].isupper() else AtomVar(name)


def test_reserved_words_are_the_parser_keywords():
    # the words the parser's tables give a meaning are exactly the reserved
    assert parser._RESERVED == {"at", "sub", *parser._TRUTHS,
                                *parser._QUANTIFIERS, *parser._CONSTANTS}


def test_relativize_validation():
    with pytest.raises(ValueError):
        relativize(parse("ex1 x. true"), "X")  # sugared
    with pytest.raises(ValueError):
        relativize(desugar(parse("ex2 X. at(X)")), "X")


def test_relativize_element_semantics():
    # "some atom exists" relativized to X == "X is nonempty", over subsets
    f = desugar(parse("ex2 Z. at(Z) & Z sub Z"))
    rel = relativize(f, "X")
    assert free_set_vars(rel) == frozenset({"X"})
    m = FiniteModel(3)
    for x in range(8):
        assert slow_evaluate(m, rel, {"X": x}) == (x != 0)


def test_sentencehood_and_structure_of_builders():
    assert is_sentence(build_rho(3, 2))
    assert is_sentence(build_sum(build_psi("eq", 1), build_psi("eq", 2)))
    assert summary(build_rho(2, 1)).set_nesting >= 2
