"""Finite models: structure tables, both evaluators, products, the glue
isomorphism, and resource guards."""

import random

import pytest

from corpus import CORPUS, _random_sentence
import finord.model
from finord import (FiniteModel, ResourceLimitError, build_psi, build_rho,
                    canonical_iso_check, evaluate, free_set_vars, parse,
                    product, slow_evaluate)


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
