"""Formula-to-DFA compilation and spectrum extraction."""

import itertools
import random
import re

import pytest

from finord import (DUPLICATOR, And, At, Bot, Dfa, Eq, ExistsSet, Exle,
                    FalseF, ForallSet, Iff, Implies, Mem, Not, Or,
                    ResourceLimitError, SetVar, Subset, TrueF, UPSet,
                    base_automaton, build_psi, build_rho, build_sum,
                    clear_caches, combine,
                    compile, cylindrify, desugar, ef_winner,
                    equivalent, evaluate,
                    format_formula, minimize, parse, project, same_set,
                    spectrum)
from finord import automata, compiler
from finord.compiler import _compile, _miniscope
from finord.formula import terms_of
from finord.formula.nodes import summary
from finord.model import FiniteModel

from corpus import CORPUS, CORPUS_BY_NAME, random_sentences


def _word_env(word, tracks):
    """Decode a word into (model size, variable assignment)."""
    env = {}
    for j, name in enumerate(tracks):
        env[name] = sum(1 << i for i, letter in enumerate(word)
                        if (letter >> j) & 1)
    return len(word), env


def test_base_automaton_at():
    a = base_automaton(At(SetVar("X")))
    assert a.tracks == ("X",)
    assert a.accepts([0, 1, 0])
    assert not a.accepts([0, 1, 1])
    assert not a.accepts([])


def test_base_automaton_exle():
    a = base_automaton(Exle(SetVar("X"), SetVar("Y")))
    assert a.tracks == ("X", "Y")
    assert a.accepts([1, 2])        # X at 0, Y at 1
    assert not a.accepts([2, 1])    # Y strictly before X
    assert not a.accepts([3])       # same position only
    assert not a.accepts([])


def test_base_automaton_with_bot():
    assert base_automaton(Eq(SetVar("X"), Bot())).accepts([])
    assert base_automaton(Eq(SetVar("X"), Bot())).accepts([0, 0])
    assert not base_automaton(Eq(SetVar("X"), Bot())).accepts([0, 1])
    empty = base_automaton(Exle(Bot(), SetVar("X")))
    assert not any(empty.accepts([l]) for l in (0, 1))
    assert not empty.accepts([])


def test_base_automaton_subset():
    a = base_automaton(Subset(SetVar("X"), SetVar("Y")))
    assert a.accepts([]) and a.accepts([0, 3, 2])
    assert not a.accepts([1])
    # X included in X is the full language once projected
    refl = project(compile(Subset(SetVar("X"), SetVar("X"))), "X")
    assert equivalent(refl, Dfa((), ((0,),), frozenset([0])))
    with pytest.raises(ValueError):
        base_automaton(TrueF())


def test_base_automata_match_the_structure():
    # every shape the shared fact step gives, over a track and over bot, on
    # every word of up to four letters
    x, y, bot = SetVar("X"), SetVar("Y"), Bot()
    atoms = [At(x), At(bot)]
    atoms += [kind(*terms) for kind in (Eq, Subset, Exle)
              for terms in ((x, y), (y, x), (x, x), (x, bot), (bot, x),
                            (bot, bot))]
    holds = {At: FiniteModel.is_atom, Eq: lambda m, u, v: u == v,
             Subset: FiniteModel.subset, Exle: FiniteModel.exle}
    for f in atoms:
        a = base_automaton(f)
        for n in range(5):
            m = FiniteModel(n)
            for word in itertools.product(range(1 << a.width), repeat=n):
                _, env = _word_env(word, a.tracks)
                args = [env[t.name] if isinstance(t, SetVar) else m.bot
                        for t in terms_of(f)]
                assert a.accepts(word) == holds[type(f)](m, *args), (f, word)


def test_compile_sentences():
    empty_only = compile(desugar(build_psi("eq", 0)))
    assert empty_only.accepts([])
    assert not empty_only.accepts([0])

    nonempty = compile(desugar(parse("ex1 x. true")))
    assert not nonempty.accepts([])
    assert all(nonempty.accepts([0] * k) for k in range(1, 6))

    assert spectrum(parse("false")).is_empty()
    assert spectrum(parse("true")) == UPSet.naturals()


def test_spectrum_examples():
    s = spectrum(build_rho(3, 2))
    assert [k for k in range(15) if s.member(k)] == [5, 8, 11, 14]
    assert spectrum(build_rho(3, 1)).period == 3
    assert spectrum(build_psi("gt", 2)) == UPSet(3, 1, frozenset(),
                                                 frozenset([0]))
    assert spectrum(build_psi("eq", 4)) == UPSet.from_finite([4])


def test_compile_requires_desugared():
    with pytest.raises(ValueError):
        compile(parse("min = min"))
    with pytest.raises(ValueError):
        spectrum(Mem(parse("true"), SetVar("X")))  # type: ignore[arg-type]


def test_spectrum_requires_sentence():
    with pytest.raises(ValueError):
        spectrum(At(SetVar("X")))


def test_capture_safe():
    # inner bound X must not capture the free X of the body
    x, y = SetVar("X"), SetVar("Y")
    f = ExistsSet("Y", And(Subset(x, y), ExistsSet("X", At(x))))
    a = compile(f)
    assert a.tracks == ("X",)
    for word in ([], [1], [0, 1], [1, 1]):
        n, env = _word_env(word, a.tracks)
        assert a.accepts(word) == evaluate(FiniteModel(n), f, env)


def _random_desugared(rng, scope, depth):
    """Random desugared formula over set variables in scope."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(6)
        def term():
            return Bot() if rng.random() < 0.25 else SetVar(rng.choice(scope))
        if kind == 0:
            return TrueF() if rng.random() < 0.5 else FalseF()
        if kind == 1:
            return Eq(term(), term())
        if kind == 2:
            return Subset(term(), term())
        if kind == 3:
            return Exle(term(), term())
        return At(term())
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_desugared(rng, scope, depth - 1))
    if kind <= 3:
        ctor = (And, Or, Implies)[kind - 1]
        return ctor(_random_desugared(rng, scope, depth - 1),
                    _random_desugared(rng, scope, depth - 1))
    if kind == 4:
        return Iff(_random_desugared(rng, scope, depth - 1),
                   _random_desugared(rng, scope, depth - 1))
    name = rng.choice(("X", "Y", "Z"))
    return ExistsSet(name, _random_desugared(rng, scope + (name,), depth - 1))


def test_compile_agrees_with_evaluator():
    rng = random.Random(20260822)
    checks = 0
    for _ in range(60):
        scope = ((), ("X",), ("X", "Y"))[rng.randrange(3)]
        f = _random_desugared(rng, scope or ("X",), rng.randrange(1, 4))
        a = compile(f)
        free = a.tracks
        for n in range(4):
            for word in _all_words(len(free), n):
                size, env = _word_env(word, free)
                assert a.accepts(word) == evaluate(FiniteModel(size), f, env)
                checks += 1
    assert checks > 500


def _all_words(width, n):
    if n == 0:
        yield []
        return
    for prefix in _all_words(width, n - 1):
        for letter in range(1 << width):
            yield prefix + [letter]


def test_spectrum_agrees_with_evaluator_on_corpus_sample():
    sentences = [CORPUS_BY_NAME[name] for name in
                 ("psi_eq_2", "rho_2_1", "axiom_order_total", "random_3")]
    # each inner binder rebinds X inside the scope of the outer X
    sentences.append(parse("ex2 X. at(X) & (all2 X. X sub X)"
                           " & ~(ex2 X. X << X & ~X = X)"))
    for f in sentences:
        s = spectrum(f)
        for n in range(6):
            assert s.member(n) == evaluate(FiniteModel(n), f, {})


def test_spectrum_homomorphism():
    f = build_psi("gt", 1)
    g = build_rho(2, 2)
    assert same_set(spectrum(Or(f, g)), spectrum(f).union(spectrum(g)))
    assert same_set(spectrum(Not(f)), spectrum(f).complement())
    assert same_set(spectrum(And(f, g)), spectrum(f).intersect(spectrum(g)))


def test_sum_of_deep_counting_sentences():
    # build_sum desugars and relativizes its summands, so its output nests
    # 169 levels deep for two psi(eq, 40), past the parser's 150 but within
    # what desugar's bound admits; 40 atoms and 40 more are exactly 80,
    # also when the spectrum is asked for from 200 frames down
    psi = build_psi("eq", 40)
    f = build_sum(psi, psi)
    assert summary(f).depth == 169

    def nested(k):
        return spectrum(f) if k == 0 else nested(k - 1)

    clear_caches()
    assert nested(200) == UPSet(81, 1, frozenset({80}), frozenset())
    clear_caches()


def test_compile_cap(state_cap):
    state_cap(2)
    with pytest.raises(ResourceLimitError):
        compile(desugar(build_rho(4, 1)))


def test_state_cap_is_read_at_first_use_and_after_clear_caches(
        state_cap, monkeypatch):
    f = parse("ex1 x. ex1 y. ~(x = y)")
    want = UPSet(2, 1, frozenset(), frozenset([0]))
    state_cap(10 ** 5)
    assert spectrum(f) == want
    # the reading stands until clear_caches: a cold spectrum still answers
    monkeypatch.setenv("FINORD_STATE_CAP", "2")
    compiler._spectrum.cache_clear()
    assert spectrum(f) == want
    clear_caches()
    with pytest.raises(ResourceLimitError, match="state cap 2"):
        spectrum(f)
    # the refusal was not memoized: restored, the cap lets it answer again
    state_cap(10 ** 5)
    assert spectrum(f) == want


def test_cylindrify_compile_consistency():
    # compiling f over a wider track set equals cylindrifying the compile
    f = At(SetVar("X"))
    wide = cylindrify(compile(f), ("X", "Y"))
    g = And(f, Or(Subset(SetVar("Y"), SetVar("Y")), TrueF()))
    assert equivalent(wide, compile(g))


def _unscoped(f):
    """The automaton of a desugared formula compiled without miniscoping."""
    return _compile(f)


def test_miniscope_keeps_automata():
    for _name, f in CORPUS:
        g = desugar(f)
        assert compile(g) == _unscoped(g)
    rng = random.Random(4242)
    for _ in range(80):
        scope = ((), ("X",), ("X", "Y"))[rng.randrange(3)]
        f = _random_desugared(rng, scope or ("X",), rng.randrange(1, 5))
        assert compile(f) == _unscoped(f)


def test_miniscope_splits_nested_guards():
    x, y = SetVar("X"), SetVar("Y")

    def guarded(body):
        return ForallSet("X", Implies(At(x), ForallSet("Y", Implies(
            At(y), body))))

    a, b, c = Subset(x, y), Exle(x, y), Not(Eq(y, Bot()))
    f = guarded(And(And(a, b), c))
    assert _miniscope(f) == And(And(guarded(a), guarded(b)), guarded(c))
    assert compile(f) == _unscoped(f)
    # X = Y at one atom breaks X << Y, so only the empty order satisfies f
    assert spectrum(f) == UPSet.from_finite([0])


def test_miniscope_spectrum_at_zero():
    x = SetVar("X")
    # true only on the empty order: no atom X is below itself
    only_empty = ForallSet("X", Implies(At(x), And(Eq(x, x), Exle(x, x))))
    # true everywhere: X = bot is a witness even when n = 0
    anywhere = ExistsSet("X", Or(At(x), Eq(x, Bot())))
    for f, want in ((only_empty, UPSet.from_finite([0])),
                    (anywhere, UPSet.naturals())):
        assert _miniscope(f) != f
        assert compile(f) == _unscoped(f)
        assert spectrum(f) == want
        for n in range(4):
            assert want.member(n) == evaluate(FiniteModel(n), f, {})


def test_miniscope_moves_unrelated_parts_out():
    # an existential's conjuncts, a universal's disjuncts and antecedents
    # that do not mention the variable move outside its binder; beside an
    # antecedent that mentions it the consequent stays whole, and a binder
    # whose links all leave is dropped
    cases = [
        ("ex2 X. at(X) & Y sub Z & Y sub X",
         "Y sub Z & (ex2 X. at(X) & Y sub X)"),
        ("all2 X. Y = bot | X sub Y | at(Z)",
         "Y = bot | at(Z) | (all2 X. X sub Y)"),
        ("all2 X. at(Y) & Y sub Z -> X sub Y | at(Z)",
         "at(Y) & Y sub Z -> at(Z) | (all2 X. X sub Y)"),
        ("all2 X. at(X) & at(Y) -> X sub Y | at(Z)",
         "at(Y) -> (all2 X. at(X) -> X sub Y | at(Z))"),
        ("ex2 X. Y sub Z & at(Y)", "Y sub Z & at(Y)"),
        ("all2 X. at(Y) -> at(Z)", "at(Y) -> at(Z)"),
        # ex1 x. ex1 w. x sub Z & Y(w), desugared: each binder keeps its own
        ("ex2 X. at(X) & (ex2 W. at(W) & X sub Z & Y sub W)",
         "(ex2 W. at(W) & Y sub W) & (ex2 X. at(X) & X sub Z)"),
    ]
    for text, want in cases:
        f = parse(text)
        g = _miniscope(f)
        assert g == parse(want), text
        a = compile(f)
        assert a == _unscoped(f), text
        for n in range(4):
            for word in _all_words(a.width, n):
                size, env = _word_env(word, a.tracks)
                m = FiniteModel(size)
                assert (a.accepts(word) == evaluate(m, f, env)
                        == evaluate(m, g, env)), (text, word)


def test_miniscope_keeps_rho_automata_small(monkeypatch):
    # each part of rho(8, 1) leaves the binders of the parts it does not
    # name, so no automaton built on the way has more than 112 states,
    # against 512 when every part stays under all eight binders
    sizes = []
    explore = automata._explore
    monkeypatch.setattr(automata, "_explore", lambda *args: (
        lambda out: sizes.append(len(out[0])) or out)(explore(*args)))
    clear_caches()
    s = spectrum(build_rho(8, 1))
    clear_caches()
    assert max(sizes) <= 256
    assert [n for n in range(40) if s.member(n)] == [9, 17, 25, 33]


def _renamed(f, names):
    """f with X, Y and Z renamed by the map names, binders included."""
    return parse(re.sub(r"\b[XYZ]\b", lambda m: names[m.group()],
                        format_formula(f)))


def test_renamed_copies_compile_once(monkeypatch):
    # a later node of a repeated shape whose free variables keep the sorted
    # order of the first's relabels the first's automaton and projects
    # nothing; one that reorders them compiles afresh
    projections = []
    project_ = automata._project
    monkeypatch.setattr(automata, "_project", lambda a, track, exists: (
        projections.append(track) or project_(a, track, exists)))

    def projected(f):
        projections.clear()
        return compile(f), len(projections)

    # the first's tracks X, Y become Y, Z in the copy: the order holds
    kept = parse("(ex2 Z. Y sub Z & Z sub X) | (ex2 W. Z sub W & W sub Y)")
    # they become Y, X: reordered, though the copy names them in order
    swapped = parse("(ex2 Z. Y sub Z & Z sub X) & (ex2 W. X sub W & W sub Y)")
    assert projected(kept)[1] == 1
    a, count = projected(swapped)
    assert count == 2
    assert a == combine(compile(swapped.left), compile(swapped.right), "and")
    # one binder over at(X) is vacuous and one binds X: two shapes
    copies = [(kept, kept.left, True), (swapped, swapped.left, False),
              (parse("(ex2 Y. at(X)) | (ex2 X. at(X))"), None, True)]
    rng = random.Random(16)
    for _ in range(40):
        g = _random_desugared(rng, ("X", "Y", "Z"), rng.randrange(1, 4))
        names = dict(zip("XYZ", rng.sample("XYZ", 3)))
        tracks = [names[t] for t in compile(g).tracks]
        copies.append((rng.choice((And, Or, Iff))(g, _renamed(g, names)), g,
                       tracks == sorted(tracks)))
    for f, g, order_kept in copies:
        a, count = projected(f)
        if g is not None:
            alone = projected(g)[1]
            assert count == alone if order_kept else count >= alone, f
        assert a == minimize(a), f
        for n in range(4 if a.width < 3 else 3):
            for word in _all_words(a.width, n):
                size, env = _word_env(word, a.tracks)
                assert a.accepts(word) == evaluate(FiniteModel(size), f, env)
    assert sum(kept for _f, _g, kept in copies) > 20
    assert sum(not kept for _f, _g, kept in copies) > 5


def test_spectra_are_unions_of_game_classes():
    # Ehrenfeucht-Fraisse: a sentence whose desugared set binders nest k
    # deep holds in both or neither of two orders on which Duplicator wins
    # the k-round game, an engine that shares no code with the compiler
    alike = {k: [(m, n) for m in range(12) for n in range(m)
                 if ef_winner(FiniteModel(m), FiniteModel(n), k) == DUPLICATOR]
             for k in (0, 1, 2)}
    checked = 0
    for name, f in random_sentences(count=700, seed=16):
        k = summary(desugar(f)).set_nesting
        if k <= 2:
            s = spectrum(f)
            for m, n in alike[k]:
                assert s.member(m) == s.member(n), (name, k, m, n)
            checked += 1
    assert checked > 300
