"""Finite models: structure tables, both evaluators, products, the glue
isomorphism, and resource guards."""

import random

import pytest

from corpus import CORPUS, _random_sentence
import finord.model
from finord import (TRUE, ExistsAtom, ExistsSet, Fin, FiniteModel,
                    ForallAtom, ForallSet, Implies, Not, ResourceLimitError,
                    build_psi, build_rho, build_sum, canonical_iso_check,
                    conj, desugar, disj, evaluate, free_set_vars, free_vars,
                    is_desugared, is_sentence, parse, point_models, product,
                    pseudofinite_valid, satisfiable_witness, slow_evaluate,
                    spectrum)
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


# Atom quantifiers reduce a whole axis below _SLICE_CELLS estimated cells
# and fold one atom at a time above it; 0 sends every one of them through
# the fold, so both sides of the choice are checked against slow_evaluate.
fold_threshold = pytest.mark.parametrize(
    "slice_cells", [finord.model._SLICE_CELLS, 0], ids=["axis", "fold"])


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
    # built in code, past the parser's nesting limit of 150: the entry
    # points that recurse over a formula refuse it, and the walk answers
    atom_binders = TRUE
    for i in range(200):
        atom_binders = ExistsAtom(f"x{i}", atom_binders)
    for f, depth in [(conj([TRUE] * 3000), 2999), (_not_chain(3000), 3000),
                     (atom_binders, 200)]:
        for call in (lambda: evaluate(FiniteModel(2), f),
                     lambda: spectrum(f), lambda: point_models(Fin(3), f),
                     lambda: pseudofinite_valid(f),
                     lambda: satisfiable_witness(f), lambda: desugar(f),
                     lambda: build_sum(f, TRUE)):
            with pytest.raises(ResourceLimitError,
                               match=f"formula nesting {depth} exceeds "
                                     "limit 150"):
                call()
        assert summary(f).depth == depth
        assert is_sentence(f) and not free_vars(f) and not free_set_vars(f)
        assert is_desugared(f) == (f is not atom_binders)
        assert len(all_identifiers(f)) == (200 if f is atom_binders else 0)
    # the deepest formula the parser accepts still evaluates
    assert evaluate(FiniteModel(2), _not_chain(150)) is True
    assert evaluate(FiniteModel(2), parse("~" * 150 + "true")) is True


def _not_chain(k):
    f = TRUE
    for _ in range(k):
        f = Not(f)
    return f


_DEFAULT_KEEP = finord.model._KEEP


def _check_join(monkeypatch, m, f, env=None):
    """evaluate agrees with slow_evaluate both with the default compaction
    rule and with a join that compacts after every part, so the row path
    is checked at sizes where few parts are selective enough."""
    want = slow_evaluate(m, f, env)
    for keep in (_DEFAULT_KEEP, 0):
        monkeypatch.setattr(finord.model, "_KEEP", keep)
        assert evaluate(m, f, env, max_set_depth=6) == want, (keep, m, env, f)


def _random_block(rng, outer_sets, outer_atoms):
    """One block of 1-3 same-kind set binders whose body is a conjunction
    (a disjunction under all2) of 1-4 parts over the block's and the
    outer variables.  Some parts are themselves a conjunction (under all2
    a disjunction) under an atom binder, which may be vacuous, or behind
    an implication; the block's last variables may go unused."""
    exists = rng.random() < 0.5
    names = tuple(f"B{i}" for i in range(rng.randint(1, 3)))
    sets = outer_sets + names[:rng.randint(1, len(names))]
    join = conj if exists else disj

    def part(atoms):
        return _random_sentence(rng, 1, sets, atoms)

    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.25:
            binder = rng.choice([ExistsAtom, ForallAtom])
            parts.append(binder("z", join([part(outer_atoms + ("z",)),
                                           part(outer_atoms + ("z",))])))
        elif roll < 0.35:
            parts.append(Implies(part(outer_atoms),
                                 join([part(outer_atoms), part(outer_atoms)])))
        else:
            parts.append(part(outer_atoms))
    f = join(parts)
    for name in reversed(names):
        f = (ExistsSet if exists else ForallSet)(name, f)
    return f


def test_join_agrees_on_random_blocks(monkeypatch):
    rng = random.Random(13)
    for _ in range(60):
        f = _random_block(rng, (), ())
        for n in range(5):
            _check_join(monkeypatch, FiniteModel(n), f)


def test_join_agrees_under_open_axes(monkeypatch):
    # the block runs under an outer set axis and an outer atom axis (the
    # atom binder between keeps X out of the block), or reads the same
    # variables from env
    rng = random.Random(17)
    for _ in range(30):
        body = _random_block(rng, ("X",), ("y",))
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


@pytest.mark.parametrize("relation", ["exle", "subset"])
def test_canonical_iso_check_reads_the_product(monkeypatch, relation):
    # the relation with its arguments swapped differs at some pair of 1 + 1
    # atoms, so a check that reads the product must fail
    honest = getattr(finord.model.ProductStructure, relation)
    monkeypatch.setattr(finord.model.ProductStructure, relation,
                        lambda self, u, v: honest(self, v, u))
    assert canonical_iso_check(1, 1) is False
