"""Finite models: structure tables, both evaluators, products, the glue
isomorphism, and resource guards."""

import pickle
import random

import pytest

from corpus import CORPUS, _random_sentence
import finord.model
from finord import (TRUE, And, At, AtomVar, Eq, ExistsAtom, ExistsSet, Exle,
                    Fin, FiniteModel, ForallAtom, ForallSet, Iff, Implies, Mem,
                    Not, Or, ResourceLimitError, SetVar, Subset, UPSet,
                    build_psi, build_rho, build_sum, canonical_iso_check,
                    clear_caches, comp_samples, compile, conj, desugar, disj,
                    evaluate, format_formula, free_set_vars, free_vars,
                    is_desugared, is_sentence, parse, point_models, product,
                    pseudofinite_valid, relativize, satisfiable_witness,
                    slow_evaluate, spectrum)
from finord.formula.nodes import all_identifiers, summary


def _popcount(x):
    return bin(x).count("1")


def test_structure_tables_match_definitions():
    for n in range(5):
        m = FiniteModel(n)
        universe = list(m.universe())
        assert universe == list(range(1 << n))
        assert set(m.atoms()) == {1 << i for i in range(n)}
        for u in universe:
            assert m.is_atom(u) == (_popcount(u) == 1)
            for v in universe:
                assert m.subset(u, v) == (u & ~v == 0)
                lift = any(u & (1 << i) and v & (1 << j)
                           for i in range(n) for j in range(n) if i < j)
                assert m.exle(u, v) == lift
        low, high, pop = m.bit_tables()
        bits = [[i for i in range(n) if u >> i & 1] for u in universe]
        assert low.tolist() == [min(b, default=n) for b in bits]
        assert high.tolist() == [max(b, default=-1) for b in bits]
        assert pop.tolist() == [len(b) for b in bits]
        # one read-only copy per size, shared by every model of that size
        assert FiniteModel(n).bit_tables()[0] is low
        with pytest.raises(ValueError):
            pop[0] = 1


def test_least_greatest_atom():
    m = FiniteModel(4)
    assert m.least_atom() == 1
    assert m.greatest_atom() == 8
    empty = FiniteModel(0)
    assert empty.least_atom() is None
    assert empty.greatest_atom() is None


def test_sentence_examples():
    some_atom = parse("ex1 x. true")
    assert evaluate(FiniteModel(0), some_atom) is False
    for n in range(1, 5):
        assert evaluate(FiniteModel(n), some_atom) is True
    internal_order = parse("ex2 X. X << X")
    for n in range(5):
        assert evaluate(FiniteModel(n), internal_order) is (n >= 2)


def test_endpoint_constants_on_empty_model():
    # In the empty order min/max denote nothing: atomic formulas using them
    # are false, and their negations true.
    m0 = FiniteModel(0)
    assert evaluate(m0, parse("min = min")) is False
    assert evaluate(m0, parse("~(min = min)")) is True
    assert evaluate(m0, parse("at(max)")) is False
    m1 = FiniteModel(1)
    assert evaluate(m1, parse("min = max")) is True
    assert evaluate(m1, parse("min << max")) is False
    m2 = FiniteModel(2)
    assert evaluate(m2, parse("min << max")) is True
    assert evaluate(m2, parse("min = max")) is False


# Atom blocks reduce whole axes below _SLICE_CELLS estimated cells and
# bind their trailing variables one atom at a time above it; 0 slices every
# variable an atom block reads, so both sides of the choice are checked
# against slow_evaluate.
_DEFAULT_SLICE_CELLS = finord.model._SLICE_CELLS
fold_threshold = pytest.mark.parametrize(
    "slice_cells", [_DEFAULT_SLICE_CELLS, 0], ids=["axis", "fold"])


@fold_threshold
def test_evaluators_agree_on_random_formulas(monkeypatch, slice_cells):
    monkeypatch.setattr(finord.model, "_SLICE_CELLS", slice_cells)
    rng = random.Random(7)
    for _ in range(80):
        f = _random_sentence(rng, 2, (), ())
        for n in range(4):
            m = FiniteModel(n)
            assert evaluate(m, f) == slow_evaluate(m, f), f


@fold_threshold
def test_evaluators_agree_with_free_variables(monkeypatch, slice_cells):
    monkeypatch.setattr(finord.model, "_SLICE_CELLS", slice_cells)
    rng = random.Random(11)
    for _ in range(40):
        f = _random_sentence(rng, 1, ("X",), ("y",))
        fv = sorted(free_set_vars(f))
        has_atom = "y" in {v for v in _free_all(f)}
        for n in range(1, 4):
            m = FiniteModel(n)
            for x in range(1 << n):
                for yi in range(n):
                    env = {}
                    if "X" in fv:
                        env["X"] = x
                    if has_atom:
                        env["y"] = 1 << yi
                    assert evaluate(m, f, env) == slow_evaluate(m, f, env)


def _free_all(f):
    from finord import free_vars
    return free_vars(f)


def test_env_validation():
    m = FiniteModel(2)
    f = parse("X sub Y")
    with pytest.raises(ValueError):
        evaluate(m, f, {"X": 0})                 # Y missing
    with pytest.raises(ValueError):
        evaluate(m, f, {"X": 0, "Y": 4})         # out of range
    with pytest.raises(ValueError):
        evaluate(m, parse("X(x)"), {"X": 1, "x": 3})   # non-atom for atom var
    for val in (2.0, True):                      # not an int
        with pytest.raises(ValueError):
            evaluate(FiniteModel(3), parse("X sub X"), {"X": val})
    assert evaluate(m, f, {"X": 1, "Y": 3}) is True


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        evaluate(FiniteModel(3), parse("true"), max_n=2)
    deep = parse("ex2 A. ex2 B. ex2 C. ex2 D. ex2 E. true")
    with pytest.raises(ResourceLimitError):
        evaluate(FiniteModel(1), deep, max_set_depth=4)
    with pytest.raises(ResourceLimitError):
        evaluate(FiniteModel(6), build_rho(3, 1), max_cells=1 << 10)


def test_open_binder_limit():
    # one table axis per open binder: 32 still evaluate, a 33rd is refused
    def nested(k):
        binders = "".join(f"ex1 x{i}. " for i in range(1, k + 1))
        return parse(binders + f"x1 << x{k}")
    for n in range(4):
        m = FiniteModel(n)
        assert evaluate(m, nested(32)) == slow_evaluate(m, nested(32))
    with pytest.raises(ResourceLimitError, match="nesting 33 exceeds limit 32"):
        evaluate(FiniteModel(2), nested(33))


def test_deep_formulas_are_refused_without_recursion():
    # built in code, past the 308 levels every pass holds, or past the 32
    # binders the evaluator keeps open: the entry points that recurse over
    # a formula refuse it, and the walk answers
    atom_binders = TRUE
    for i in range(200):
        atom_binders = ExistsAtom(f"x{i}", atom_binders)
    for f, depth in [(conj([TRUE] * 3000), 2999), (_not_chain(3000), 3000),
                     (atom_binders, 200)]:
        refusal = (f"formula nesting {depth} exceeds limit 308" if depth > 308
                   else "binder nesting 200 exceeds limit 32")
        with pytest.raises(ResourceLimitError, match=refusal):
            evaluate(FiniteModel(2), f)
        # desugaring refuses what it would nest past 308 levels, bounded
        # by depth + binder nesting + 8
        bound = depth + summary(f).binder_nesting + 8
        for call in (lambda: spectrum(f), lambda: point_models(Fin(3), f),
                     lambda: pseudofinite_valid(f),
                     lambda: satisfiable_witness(f), lambda: desugar(f),
                     lambda: build_sum(f, TRUE)):
            with pytest.raises(ResourceLimitError,
                               match=f"desugared formula nesting {bound} "
                                     "exceeds limit 308"):
                call()
        assert summary(f).depth == depth
        assert is_sentence(f) and not free_vars(f) and not free_set_vars(f)
        assert is_desugared(f) == (f is not atom_binders)
        assert len(all_identifiers(f)) == (200 if f is atom_binders else 0)
    # the deepest formula the parser accepts still evaluates
    assert evaluate(FiniteModel(2), _not_chain(150)) is True
    assert evaluate(FiniteModel(2), parse("~" * 150 + "true")) is True


def test_every_formula_entry_point_ends_on_deep_input():
    # each public entry point that takes a formula answers, or refuses with
    # ValueError or ResourceLimitError, on formulas built in code far past
    # the parser's limit; == and hash compare against a fresh equal copy
    def atom_binders():
        f = TRUE
        for i in range(200):
            f = ExistsAtom(f"x{i}", f)
        return f

    for make in (lambda: conj([TRUE] * 3000), lambda: _not_chain(3000),
                 atom_binders):
        f, g = make(), make()
        assert f is not g and f == g and hash(f) == hash(g)
        assert f != Not(g) and g != TRUE
        copy = pickle.loads(pickle.dumps(f))
        assert copy is not f and copy == f and hash(copy) == hash(f)
        for call in (lambda: evaluate(FiniteModel(2), f),
                     lambda: spectrum(f), lambda: point_models(Fin(3), f),
                     lambda: pseudofinite_valid(f),
                     lambda: satisfiable_witness(f), lambda: desugar(f),
                     lambda: build_sum(f, TRUE), lambda: compile(f),
                     lambda: relativize(f, "R"), lambda: format_formula(f),
                     lambda: slow_evaluate(FiniteModel(1), f),
                     lambda: free_vars(f), lambda: free_set_vars(f),
                     lambda: is_sentence(f), lambda: is_desugared(f),
                     lambda: all_identifiers(f), lambda: repr(f)):
            try:
                call()
            except (ValueError, ResourceLimitError):
                pass
    # the deepest formula desugaring makes of parsed text compiles twice
    # from 200 frames down, to equal automata
    text = "ex1 " + " ".join(f"x{i}" for i in range(150)) + ". min << max"
    first, second = desugar(parse(text)), desugar(parse(text))
    assert summary(first).depth == 308 and first is not second

    def nested(k, call):
        return call() if k == 0 else nested(k - 1, call)

    clear_caches()
    a = nested(200, lambda: compile(first))
    assert nested(200, lambda: compile(second)) == a and a.width == 0

    # a sentence built in code 298 levels deep, as deep as desugaring
    # admits under two binders, and a fresh equal copy hits the warm
    # spectrum cache from 200 frames down
    def blocks():
        X, Y = SetVar("X"), SetVar("Y")
        return ExistsSet("X", ExistsSet("Y", conj(
            [Not(Subset(Y, X)), Subset(X, Y), At(X), Exle(X, Y)] * 74)))

    f, g = blocks(), blocks()
    assert summary(f).depth == 298 and f is not g
    s = nested(200, lambda: spectrum(f))
    assert nested(200, lambda: spectrum(g)) is s
    assert s == UPSet(2, 1, frozenset(), frozenset([0]))
    for call in (lambda: compile(Not(first)),
                 lambda: relativize(Not(first), "R"),
                 lambda: format_formula(Not(first)),
                 lambda: slow_evaluate(FiniteModel(1), Not(first))):
        with pytest.raises(ResourceLimitError,
                           match="formula nesting 309 exceeds limit 308"):
            call()


def test_evaluate_holds_what_every_pass_holds():
    # built in code between the parser's 150 levels and the 308 every pass
    # holds, and called from 200 frames down, evaluate answers as
    # slow_evaluate does
    X, Y = SetVar("X"), SetVar("Y")
    x, y = AtomVar("x1"), AtomVar("x32")
    sets = conj([Not(Subset(Y, X)), Subset(X, Y), At(X), Exle(X, Y)] * 75)
    atoms = conj([Not(Exle(y, x)), Exle(x, y), Not(Eq(x, y))] * 90)
    for i in range(32, 0, -1):
        atoms = ExistsAtom(f"x{i}", atoms)
    # the two blocks hold from two atoms on, the odd negation chain below
    cases = [(ExistsSet("X", ExistsSet("Y", sets)), 302, 2, True),
             (_not_chain(307, parse("min << max")), 307, 0, False),
             (atoms, 302, 32, True)]

    def nested(k, call):
        return call() if k == 0 else nested(k - 1, call)

    for f, depth, binders, from_two in cases:
        s = summary(f)
        assert (s.depth, s.binder_nesting) == (depth, binders)
        for n in range(4):
            m = FiniteModel(n)
            want = nested(200, lambda: slow_evaluate(m, f))
            assert want == ((n >= 2) == from_two)
            assert nested(200, lambda: evaluate(m, f)) == want


def _not_chain(k, f=TRUE):
    for _ in range(k):
        f = Not(f)
    return f


_DEFAULT_KEEP = finord.model._KEEP


def _check_join(monkeypatch, m, f, env=None):
    """evaluate agrees with slow_evaluate with the default compaction rule
    and with a join that compacts after every part, so the row path is
    checked at sizes where few parts are selective enough, and with atom
    blocks run whole, with their trailing variables sliced (at most 4
    cells left), and sliced in every variable they read."""
    want = slow_evaluate(m, f, env)
    for keep in (_DEFAULT_KEEP, 0):
        for slice_cells in (_DEFAULT_SLICE_CELLS, 4, 0):
            monkeypatch.setattr(finord.model, "_KEEP", keep)
            monkeypatch.setattr(finord.model, "_SLICE_CELLS", slice_cells)
            assert evaluate(m, f, env, max_set_depth=6) == want, \
                (keep, slice_cells, m, env, f)


def _random_block(rng, outer_sets, outer_atoms, over_sets):
    """One block of 1-3 same-kind binders, over sets or over atoms, whose
    body is a conjunction (a disjunction under all2 and all1) of 1-4 parts
    over the block's and the outer variables.  Some parts are themselves a
    conjunction (a disjunction) under an atom binder, which may be vacuous,
    or behind an implication; the block's last variables may go unused.  A
    set block's part may be a comprehension of one of its variables, X,
    ``all1 z. X(z) <-> phi`` either way round (under all2 the antecedent
    of an implication), sometimes twice, whose phi reads outer and block
    variables, has binders of its own, and sometimes reads X itself.  Or,
    in a block of several variables, phi reads another block variable, so
    that X is bound after it, and two more parts read X, so that rows
    compact while X is bound."""
    exists = rng.random() < 0.5
    names = tuple(f"{'B' if over_sets else 'b'}{i}"
                  for i in range(rng.randint(1, 3)))
    used = names[:rng.randint(1, len(names))]
    sets = outer_sets + used if over_sets else outer_sets
    atoms = outer_atoms if over_sets else outer_atoms + used
    join = conj if exists else disj

    def part(atoms, sets=sets):
        return _random_sentence(rng, 1, sets, atoms)

    def comprehension(var, other=None):
        scope = sets if other is None and rng.random() < 0.2 else tuple(
            v for v in sets if v != var)
        mem, phi = Mem(AtomVar("z"), SetVar(var)), part(atoms + ("z",), scope)
        if other is not None:
            phi = rng.choice((And, Or, Iff))(Mem(AtomVar("z"), SetVar(other)),
                                             phi)
        c = ForallAtom("z", Iff(mem, phi) if rng.random() < 0.5
                       else Iff(phi, mem))
        return c if exists else Implies(c, part(atoms))

    def reading(var):
        pair = (SetVar(var), SetVar(rng.choice(sets)))[::rng.choice((1, -1))]
        return Iff(rng.choice((Subset, Eq, Exle))(*pair), part(atoms))

    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if over_sets and roll < 0.2 and len(used) > 1 and rng.random() < 0.5:
            var, other = rng.sample(used, 2)
            parts += [comprehension(var, other), reading(var), reading(var)]
        elif over_sets and roll < 0.2:
            parts.append(comprehension(rng.choice(used)))
            if rng.random() < 0.2:
                parts.append(parts[-1])
        elif roll < 0.25:
            binder = rng.choice([ExistsAtom, ForallAtom])
            parts.append(binder("z", join([part(atoms + ("z",)),
                                           part(atoms + ("z",))])))
        elif roll < 0.35:
            parts.append(Implies(part(atoms), join([part(atoms), part(atoms)])))
        else:
            parts.append(part(atoms))
    f = join(parts)
    binder = ((ExistsSet, ForallSet) if over_sets
              else (ExistsAtom, ForallAtom))[not exists]
    for name in reversed(names):
        f = binder(name, f)
    return f


def test_join_agrees_on_random_blocks(monkeypatch):
    # 60 set blocks, then 40 atom blocks
    rng = random.Random(13)
    for over_sets in [True] * 60 + [False] * 40:
        f = _random_block(rng, (), (), over_sets)
        for n in range(5):
            _check_join(monkeypatch, FiniteModel(n), f)


def test_join_agrees_under_open_axes(monkeypatch):
    # the block runs under an outer set axis and an outer atom axis (the
    # atom binder between keeps X out of the block), or reads the same
    # variables from env; 30 set blocks, then 20 atom blocks
    rng = random.Random(17)
    for over_sets in [True] * 30 + [False] * 20:
        body = _random_block(rng, ("X",), ("y",), over_sets)
        outer = rng.choice([ExistsSet, ForallSet])(
            "X", rng.choice([ExistsAtom, ForallAtom])("y", body))
        for n in range(4):
            m = FiniteModel(n)
            _check_join(monkeypatch, m, outer)
            for _ in range(min(n, 2)):
                env = {"X": rng.randrange(1 << n), "y": 1 << rng.randrange(n)}
                _check_join(monkeypatch, m, body, env)


def test_join_keeps_vacuous_binders():
    # a part that reads no block variable runs before any is bound, a
    # block variable that no part reads is never bound, and a part split
    # through an atom binder keeps the binder on every piece; at size 0
    # every atom binder is vacuous, so "all1" holds and "ex1" fails
    cases = [("ex2 A. ex2 B. (all1 x. false) & A = B", True),
             ("all2 A. all2 B. (ex1 x. true) | ~(A = B)", False),
             ("ex2 A. ex2 B. ex2 C. A sub B & (ex1 x. true)", False),
             ("ex2 A. ex2 B. all1 x. A = B & false", True)]
    for text, at_zero in cases:
        f = parse(text)
        assert evaluate(FiniteModel(0), f) is at_zero, text
        for n in range(1, 4):
            m = FiniteModel(n)
            assert evaluate(m, f) == slow_evaluate(m, f), (n, text)


def test_join_gives_an_unread_set_variable_no_axis(monkeypatch):
    # B sits between the two variables the parts read; at size 0 there is
    # still one set for it, so its binder changes nothing, under ex2 and
    # under all2
    cases = [parse("ex2 A. ex2 B. ex2 C. A = C & A sub C"),
             parse("all2 A. all2 B. all2 C. ~A = C | C sub A")]
    for f in cases:
        names = finord.model._plan(f)[0]
        assert names == ["A", "C"]
        for n in range(4):
            _check_join(monkeypatch, FiniteModel(n), f)


def test_join_splits_only_what_distributes():
    # all1 distributes over a conjunction and ex1 over a disjunction, but
    # not the other way round, and an implication only on its right side
    cases = ["ex2 A. ex2 B. ex1 x. A(x) & ~A(x) & A = B",
             "all2 A. all2 B. all1 x. A(x) | ~A(x) | A = B",
             "ex2 A. ex2 B. (A(min) & ~A(min) -> false) & A = B"]
    for text in cases:
        f = parse(text)
        for n in range(4):
            m = FiniteModel(n)
            assert evaluate(m, f) == slow_evaluate(m, f), (n, text)


def test_join_keeps_only_surviving_rows():
    # a dense table for the three parts of rho(3, h) at 10 atoms has 2^30
    # cells; the join never holds more than 2^21
    answers = [evaluate(FiniteModel(10), build_rho(3, h), max_cells=1 << 21)
               for h in (1, 2, 3)]
    assert answers == [True, False, False]


def test_join_binds_a_comprehension_to_its_one_set():
    # at 10 atoms an axis for X0 beside Y's and Z's makes tables of 2^30
    # cells; bound to the set it defines, X0 needs none
    sentences = [f for _, f in comp_samples()] + [parse(
        "all2 Y. all2 Z. all2 X0. (all1 x. X0(x) <-> Y(x) & Z(x))"
        " -> X0 sub Y")]
    for f in sentences:
        assert evaluate(FiniteModel(10), f, max_cells=1 << 21) is True, f


def test_join_keeps_a_comprehension_that_reads_its_set():
    # phi reads X, so no set is defined (the plan's sets by name are empty)
    # and the part is kept: no set equals its own complement once there is
    # an atom
    f = parse("ex2 X. all1 x. X(x) <-> ~X(x)")
    assert finord.model._plan(f)[2] == {}
    for n in range(5):
        m = FiniteModel(n)
        assert evaluate(m, f) is slow_evaluate(m, f) is (n == 0)


def _stored_fact_sentences():
    # set blocks of several parts (so plans hold rebuilt parts), a
    # comprehension, atom blocks in and out of set blocks, and random
    # sentences of rank 2
    rng = random.Random(29)
    return ([build_rho(2, 1), parse("all1 x. ex1 y. x << y | x = y")]
            + [f for _, f in comp_samples()]
            + [_random_sentence(rng, 2, (), ()) for _ in range(30)])


def test_evaluate_plans_each_block_once(monkeypatch):
    # the nine sizes of one formula share every plan: each binder that
    # opens a block is planned once, at its first evaluation
    planned = []

    def plan(f):
        planned.append(f)
        return real(f)

    real = finord.model._plan
    monkeypatch.setattr(finord.model, "_plan", plan)
    cases = [(parse("all1 x. ex1 y. x << y | x = y"), 2),
             (parse("all2 Y. all2 Z. ex2 X0. all1 x. X0(x) <-> Y(x) & Z(x)"),
              2),
             (build_rho(2, 1), None)]
    for f, blocks in cases:
        planned.clear()
        for n in range(9):
            evaluate(FiniteModel(n), f)
        assert len({id(g) for g in planned}) == len(planned) > 0, f
        assert blocks is None or len(planned) == blocks, f
        for n in range(9):
            evaluate(FiniteModel(n), f)
        assert len({id(g) for g in planned}) == len(planned), f


def test_stored_facts_serve_every_size():
    # facts stored at n = 8 answer n = 0..3, and an equal copy built
    # separately (pickle rebuilds through the constructors) stores its own
    for f in _stored_fact_sentences():
        spec = spectrum(f)
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and copy is not f
        assert evaluate(FiniteModel(8), f) is spec.member(8), f
        for n in range(4):
            m = FiniteModel(n)
            want = slow_evaluate(m, f)
            assert evaluate(m, f) is want, (n, f)
            assert evaluate(m, copy) is want, (n, f)
        assert evaluate(FiniteModel(8), copy) is spec.member(8), f


def test_stored_facts_are_invisible():
    for f in _stored_fact_sentences():
        before = (hash(f), repr(f), pickle.dumps(f))
        copy = pickle.loads(before[2])
        for n in range(5):
            evaluate(FiniteModel(n), f)
        assert (hash(f), repr(f), pickle.dumps(f)) == before, f
        assert vars(f).keys() > vars(copy).keys(), f
        assert f == copy and copy == f, f
        assert (hash(copy), repr(copy), pickle.dumps(copy)) == before, f


def test_product_structure_agrees_with_glued_model():
    sentences = [parse("ex1 x. true"), parse("ex2 X. X << X"),
                 parse("at(min)"), parse("min << max"),
                 build_psi("gt", 1), build_rho(2, 2)]
    for m_size in range(4):
        for n_size in range(4):
            left = FiniteModel(m_size)
            right = FiniteModel(n_size)
            glued = FiniteModel(m_size + n_size)
            prod = product(left, right)
            for f in sentences:
                assert slow_evaluate(prod, f) == evaluate(glued, f), \
                    (m_size, n_size, f)


def test_canonical_iso_check_small_grid():
    for m in range(4):
        for n in range(4):
            assert canonical_iso_check(m, n) is True


def test_canonical_iso_check_refuses_past_the_model_size_limit():
    # all 4^(m+n) pairs are compared, so the check is held to the size
    # evaluate is held to, and refuses before building either structure
    for m, n in ((5, 6), (11, 0), (10 ** 7, 10 ** 7)):
        with pytest.raises(ResourceLimitError,
                           match=f"model size {m} \\+ {n} exceeds limit 10"):
            canonical_iso_check(m, n)


@pytest.mark.parametrize("relation", ["exle", "subset"])
def test_canonical_iso_check_reads_the_product(monkeypatch, relation):
    # the relation with its arguments swapped differs at some pair of 1 + 1
    # atoms, so a check that reads the product must fail
    honest = getattr(finord.model.ProductStructure, relation)
    monkeypatch.setattr(finord.model.ProductStructure, relation,
                        lambda self, u, v: honest(self, v, u))
    assert canonical_iso_check(1, 1) is False
