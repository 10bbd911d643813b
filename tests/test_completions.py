"""Residue specifications, limit points, and the extension monoid."""

import math
import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finord import (UNDETERMINED, Fin, Inf, Not, Table, UPSet, ZeroShift,
                    build_psi, build_rho, crt_solve, format_point, parse,
                    parse_point, point_models, point_mul, pseudofinite_valid,
                    rep, residue_extend, satisfiable_witness, spectrum,
                    validate)

from corpus import CORPUS_BY_NAME


def test_undetermined_is_not_boolean():
    with pytest.raises(TypeError):
        bool(UNDETERMINED)
    assert (UNDETERMINED is UNDETERMINED) and repr(UNDETERMINED)


def test_validate():
    assert validate(Table({8: 5})) == []
    assert validate(Table({2: 1, 9: 3})) == []
    assert validate(ZeroShift(0)) == []
    assert validate(ZeroShift(7)) == []
    assert validate(Table({2: 2}))          # residue not reduced
    assert validate(Table({6: 1}))          # 6 is not a prime power
    assert validate(Table({1: 0}))
    assert validate(Table(((2, 1), (4, 3))))  # two entries for prime 2
    assert validate(Table({2 ** 61 - 1: 0}))  # a prime beyond the key bound
    bad = Table({6: 1})
    for call in (lambda: residue_extend(bad, 2),
                 lambda: point_mul(Fin(1), Inf(bad)),
                 lambda: format_point(Inf(bad))):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        ZeroShift(-1)
    with pytest.raises(ValueError):
        Fin(-1)


def test_crt_solve():
    assert crt_solve([]) == 0
    assert crt_solve([(3, 2), (5, 3)]) == 8
    assert crt_solve([(4, 1), (9, 7), (25, 3)]) == 853
    with pytest.raises(ValueError):
        crt_solve([(4, 1), (6, 5)])       # moduli share a factor
    with pytest.raises(ValueError):
        crt_solve([(0, 0)])
    rng = random.Random(61)
    for _ in range(60):
        moduli = []
        for m in rng.sample([3, 4, 5, 7, 11, 13], rng.randrange(1, 4)):
            moduli.append((m, rng.randrange(m)))
        x = crt_solve(moduli)
        prod = math.prod(m for m, _ in moduli)
        assert 0 <= x < prod
        assert all(x % m == r for m, r in moduli)
        assert [y for y in range(prod)
                if all(y % m == r for m, r in moduli)] == [x]


def test_residue_extend():
    t = Table({4: 3, 9: 2, 5: 1})
    assert residue_extend(t, 4) == 3
    assert residue_extend(t, 2) == 1        # 3 mod 2
    assert residue_extend(t, 6) == 5        # crt of 2:1 and 3:2
    assert residue_extend(t, 36) == 11      # crt of 4:3 and 9:2
    assert residue_extend(t, 8) is UNDETERMINED   # only 2^2 is pinned
    assert residue_extend(Table({2: 1}), 4) is UNDETERMINED
    assert residue_extend(Table({2: 1}), 3) is UNDETERMINED
    assert residue_extend(ZeroShift(5), 3) == 2
    assert residue_extend(ZeroShift(6), 3) == 0
    with pytest.raises(ValueError):
        residue_extend(ZeroShift(0), 1)
    with pytest.raises(ValueError):
        residue_extend(ZeroShift(0), 0)


def test_residue_extend_scan():
    # a table rich enough to determine every modulus up to 60
    big = Table({4: 1, 9: 4, 25: 13, 7: 2, 11: 3, 13: 5, 17: 1, 19: 2,
                 23: 3, 29: 4, 31: 5, 37: 6, 41: 7, 43: 8, 47: 9, 53: 10,
                 59: 11})
    assert validate(big) == []
    for d in range(2, 61):
        assert residue_extend(big, d) == _scan_extend(big, d)
    # and a sparse table where most moduli stay open
    small = Table({4: 3, 7: 2})
    for d in range(2, 61):
        got = residue_extend(small, d)
        want = _scan_extend(small, d)
        if want is UNDETERMINED:
            assert got is UNDETERMINED
        else:
            assert got == want


def _scan_extend(table, d):
    candidates = [x for x in range(d)
                  if all(x % math.gcd(q, d) == r % math.gcd(q, d)
                         for q, r in table.entries)]
    # determined iff the covered part pins a unique residue
    covered = 1
    for q, _ in table.entries:
        covered = covered * math.gcd(q, d) // math.gcd(covered, math.gcd(q, d))
    if covered == d and len(candidates) == 1:
        return candidates[0]
    return UNDETERMINED


def test_rep():
    assert rep(5, 3) == 2
    assert rep(6, 3) == 3
    assert rep(0, 4) == 4
    assert rep(7, 7) == 7


def test_point_models():
    rho32 = build_rho(3, 2)
    assert point_models(Fin(8), rho32) is True
    assert point_models(Fin(4), rho32) is False
    assert point_models(Inf(ZeroShift(0)), build_psi("gt", 3)) is True
    assert point_models(Inf(ZeroShift(0)), build_rho(4, 4)) is True
    assert point_models(Inf(ZeroShift(0)), build_rho(4, 1)) is False
    assert point_models(Inf(ZeroShift(1)), build_rho(4, 1)) is True
    t = Inf(Table({2: 1}))
    assert point_models(t, build_rho(2, 1)) is True
    assert point_models(t, build_rho(2, 2)) is False
    assert point_models(t, build_rho(3, 1)) is UNDETERMINED
    # period-1 spectra are decided regardless of the residue data
    assert point_models(t, build_psi("gt", 0)) is True
    assert point_models(t, build_psi("eq", 2)) is False


def test_point_models_negation_consistency():
    points = [Fin(0), Fin(3), Inf(ZeroShift(0)), Inf(ZeroShift(2))]
    names = ("psi_gt_1", "rho_2_2", "rho_3_1", "axiom_order_total",
             "random_1", "comp_comp_meet")
    for name in names:
        f = CORPUS_BY_NAME[name]
        for p in points:
            v = point_models(p, f)
            w = point_models(p, Not(f))
            assert v is not UNDETERMINED
            assert v != w


def test_point_mul():
    assert point_mul(Fin(2), Fin(3)) == Fin(5)
    assert point_mul(Fin(0), Inf(ZeroShift(4))) == Inf(ZeroShift(4))
    assert point_mul(Fin(2), Inf(ZeroShift(1))) == Inf(ZeroShift(3))
    assert point_mul(Inf(ZeroShift(1)), Fin(2)) == Inf(ZeroShift(3))
    assert point_mul(Inf(ZeroShift(1)), Inf(ZeroShift(2))) == \
        Inf(ZeroShift(3))
    got = point_mul(Inf(Table({4: 1, 3: 2})), Inf(Table({2: 1, 9: 1})))
    assert got == Inf(Table({2: 0, 3: 0}))
    got = point_mul(Inf(Table({4: 1})), Inf(Table({8: 2})))
    assert got == Inf(Table({4: 3}))
    shifted = point_mul(Inf(Table({4: 1})), Inf(ZeroShift(2)))
    assert shifted == Inf(Table({4: 3}))


def test_point_mul_monoid_laws():
    pts = [Fin(0), Fin(1), Fin(4), Inf(ZeroShift(0)), Inf(ZeroShift(3)),
           Inf(Table({4: 1, 3: 2})), Inf(Table({2: 1, 9: 4, 5: 0}))]
    for a in pts:
        assert point_mul(Fin(0), a) == a
        assert point_mul(a, Fin(0)) == a
        for b in pts:
            assert point_mul(a, b) == point_mul(b, a)
            for c in pts:
                assert point_mul(point_mul(a, b), c) == \
                    point_mul(a, point_mul(b, c))


def test_pseudofinite_valid():
    assert pseudofinite_valid(parse("all2 X. bot sub X"))
    assert pseudofinite_valid(CORPUS_BY_NAME["axiom_order_total"])
    assert not pseudofinite_valid(build_psi("gt", 0))
    assert not pseudofinite_valid(parse("false"))


def test_satisfiable_witness():
    assert satisfiable_witness(build_psi("eq", 4)) == 4
    assert satisfiable_witness(parse("false")) is None
    assert satisfiable_witness(build_rho(3, 2)) == 5
    assert satisfiable_witness(parse("true")) == 0


def test_point_serialization_roundtrip():
    pts = [Fin(0), Fin(17), Inf(ZeroShift(0)), Inf(ZeroShift(9)),
           Inf(Table({})), Inf(Table({4: 3, 3: 1, 25: 7}))]
    for p in pts:
        assert parse_point(format_point(p)) == p
    assert format_point(Fin(2)) == "fin:2"
    assert format_point(Inf(ZeroShift(1))) == "inf:zero+1"
    assert format_point(Inf(Table({9: 2, 2: 1}))) == "inf:2^1=1;3^2=2"


def test_parse_point_rejects():
    for text in ("fin:-1", "fin:", "fin: 2", "inf:2^1=5", "inf:4^1=1",
                 "inf:4^1=2", "inf:2^2=3;2^1=1", "inf:3^1=2;2^2=3", "nope",
                 "inf:zero+-3", "inf:zero+", "inf:6^1=1",
                 # digits that int() reads but format_point never prints
                 "fin:00", "inf:zero+007", "fin:\u0663", "inf:zero+\u0663"):
        with pytest.raises(ValueError):
            parse_point(text)
    # surrounding whitespace is tolerated; the body itself is strict
    assert parse_point(" fin:2 ") == Fin(2)


@st.composite
def _points(draw):
    kind = draw(st.sampled_from(("fin", "zero", "table")))
    if kind != "table":
        n = draw(st.integers(min_value=0, max_value=10 ** 30))
        return Fin(n) if kind == "fin" else Inf(ZeroShift(n))
    entries = {}
    for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 65537)),
                           unique=True)):
        top = next(j for j in count(1) if p ** (j + 1) >= 2 ** 32)
        key = p ** draw(st.integers(min_value=1, max_value=top))
        entries[key] = draw(st.integers(min_value=0, max_value=key - 1))
    return Inf(Table(entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_points(), st.booleans())
def test_point_text_roundtrip(point, flag):
    assert parse_point(format_point(point)) == point
    # a bool is an int, but prints as neither a size nor a residue
    for make in (Fin, ZeroShift, lambda b: Table({2: b})):
        with pytest.raises(ValueError):
            make(flag)


def test_spectrum_clopen_consistency():
    # a point's verdict on a sentence only depends on the spectrum
    pts = [Fin(1), Fin(6), Inf(ZeroShift(0)), Inf(ZeroShift(1)),
           Inf(Table({2: 1})), Inf(Table({2: 0})), Inf(Table({8: 5, 9: 2})),
           Inf(Table({4: 1, 3: 2, 5: 0}))]
    sentences = [CORPUS_BY_NAME[name] for name in
                 ("rho_2_2", "psi_gt_1", "rho_3_1", "axiom_order_total")]
    sentences += [build_rho(4, h) for h in range(1, 5)] + [build_rho(6, 5)]
    for f in sentences:
        for p in pts:
            assert point_models(p, f) == _models_via_spectrum(p, spectrum(f))


def _models_via_spectrum(p, s):
    from finord import to_normal_form
    if isinstance(p, Fin):
        return s.member(p.n)
    nf = to_normal_form(s)
    if nf.period == 1:
        return 1 in nf.classes
    r = residue_extend(p.spec, nf.period)
    if r is UNDETERMINED:
        return UNDETERMINED
    return rep(r, nf.period) in nf.classes
