"""Ultimately periodic sets: canonical form, Boolean algebra, sums."""

import random
import time

import pytest

from finord import (NormalFormDescriptor, ResourceLimitError, UPSet,
                    brute_force_oracle, format_upset, from_normal_form,
                    minkowski_sum, minkowski_validity_bound, parse_upset,
                    same_set, to_normal_form)


def _random_upset(rng, max_n=6, max_d=6):
    n = rng.randrange(0, max_n + 1)
    d = rng.randrange(1, max_d + 1)
    return UPSet(n, d,
                 frozenset(x for x in range(n) if rng.random() < 0.5),
                 frozenset(r for r in range(d) if rng.random() < 0.5))


def test_validation():
    with pytest.raises(ValueError):
        UPSet(2, 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        UPSet(-1, 1, frozenset(), frozenset())
    with pytest.raises(ValueError):
        UPSet(2, 3, frozenset([2]), frozenset())      # init out of range
    with pytest.raises(ValueError):
        UPSet(2, 3, frozenset(), frozenset([3]))      # residue out of range


def test_membership():
    s = UPSet(3, 3, frozenset([1]), frozenset([2]))
    assert [k for k in range(12) if s.member(k)] == [1, 5, 8, 11]
    assert s.members_upto(12) == [1, 5, 8, 11]
    assert s.min_element() == 1
    assert UPSet.empty().min_element() is None
    assert UPSet.empty().is_empty()
    assert not UPSet.naturals().is_empty()
    assert UPSet.from_finite([4, 1]).members_upto(10) == [1, 4]


def test_min_element_reads_init_and_one_period():
    # with init empty the least member is read off the residues, with no
    # walk up to a threshold of 10^12
    far = parse_upset("UP(init={};N=1000000000000;d=1;res={0})")
    started = time.perf_counter()
    assert far.min_element() == 10 ** 12
    assert time.perf_counter() - started < 1
    assert parse_upset("UP(init={};N=9;d=5;res={1,3})").min_element() == 11
    rng = random.Random(43)
    for _ in range(300):
        s = _random_upset(rng)
        want = s.members_upto(s.threshold + s.period)
        assert s.min_element() == (want[0] if want else None), s


def test_canonicalize_examples():
    # period 6 pattern that is really period 3
    s = UPSet(0, 6, frozenset(), frozenset([1, 4]))
    assert s.canonicalize() == UPSet(0, 3, frozenset(), frozenset([1]))
    # init entries that match the residue pattern get absorbed
    s = UPSet(4, 2, frozenset([1, 3]), frozenset([1]))
    assert s.canonicalize() == UPSet(0, 2, frozenset(), frozenset([1]))
    assert UPSet(5, 1, frozenset(), frozenset()).canonicalize() == \
        UPSet.empty()


def test_canonicalize_properties():
    rng = random.Random(41)
    for _ in range(300):
        s = _random_upset(rng)
        c = s.canonicalize()
        assert c.canonicalize() == c
        bound = s.threshold + s.period * c.period + 4
        assert s.members_upto(bound) == c.members_upto(bound)
        # canonical period divides the original and is minimal
        assert s.period % c.period == 0
        for d in range(1, c.period):
            if c.period % d:
                continue
            ok = all(c.member(c.threshold + k) == c.member(c.threshold + k + d)
                     for k in range(2 * c.period + 2))
            assert not ok
        # canonical threshold is minimal: position t-1 disagrees with pattern
        if c.threshold > 0:
            t = c.threshold - 1
            assert c.member(t) != ((t % c.period) in c.residues)


def _canonicalize_stepwise(s):
    """The canonical form with the threshold lowered one step at a time,
    as long as the position below it agrees with the periodic tail."""
    c = s.canonicalize()
    d, res = c.period, c.residues
    n = s.threshold
    while n > 0 and ((n - 1) in s.init) == (((n - 1) % d) in res):
        n -= 1
    return UPSet(n, d, frozenset(x for x in s.init if x < n), res)


def test_canonicalize_threshold_matches_stepwise():
    rng = random.Random(43)
    for i in range(3000):
        if i % 2:
            s = _random_upset(rng, max_n=30, max_d=8)
        else:
            # init mostly follows the tail, so long agreeing runs occur
            n, d = rng.randrange(0, 60), rng.randrange(1, 9)
            res = frozenset(r for r in range(d) if rng.random() < 0.5)
            init = frozenset(x for x in range(n)
                             if ((x % d) in res) != (rng.random() < 0.05))
            s = UPSet(n, d, init, res)
        assert s.canonicalize() == _canonicalize_stepwise(s), s


def test_canonicalize_huge_threshold():
    # the threshold is found from the last disagreement, not by stepping
    big = 10 ** 12
    text = f"UP(init={{}};N={big};d=1;res={{}})"
    with pytest.raises(ValueError):
        parse_upset(text, require_canonical=True)
    assert parse_upset(text).canonicalize() == UPSet.empty()
    s = UPSet(big, 2, frozenset([big - 1, big - 3]), frozenset([1]))
    assert s.canonicalize() == UPSet(big - 4, 2, frozenset(), frozenset([1]))
    s = UPSet(big, 1, frozenset([big - 1]), frozenset([0]))
    assert s.canonicalize() == UPSet(big - 1, 1, frozenset(), frozenset([0]))


def _least_period(residues, d):
    """The least e dividing d that maps the residues onto themselves."""
    return next(e for e in range(1, d + 1) if d % e == 0
                and {(r + e) % d for r in residues} == set(residues))


def test_canonicalize_huge_period():
    # only the differences r - min(residues) that divide the period are
    # tried, so the time follows the residues, not the period
    rng = random.Random(5)
    for _ in range(2000):
        # residues repeating with a random divisor of d, so that the least
        # period ranges from 1 to d
        d = rng.randrange(1, 61)
        step = rng.choice([e for e in range(1, d + 1) if d % e == 0])
        kept = {r for r in range(step) if rng.random() < 0.4}
        res = frozenset(r for r in range(d) if r % step in kept)
        s = UPSet(rng.randrange(3), d, frozenset(), res)
        want = _least_period(res, d) if res else 1
        assert s.canonicalize().period == want, s
    for k in (12, 18):
        far = parse_upset(f"UP(init={{}};N=0;d={10 ** k};res={{0}})")
        started = time.perf_counter()
        assert far.canonicalize() == far
        assert time.perf_counter() - started < 1
    s = UPSet(0, 10 ** 12, frozenset(), frozenset({0, 5 * 10 ** 11}))
    assert s.canonicalize() == UPSet(0, 5 * 10 ** 11, frozenset(),
                                     frozenset({0}))


def test_boolean_ops_keep_the_state_cap(state_cap):
    # max threshold + lcm of the periods is the result's state count, so
    # an operation past the cap refuses before it loops
    a = UPSet(0, 100003, frozenset(), frozenset({0}))
    b = UPSet(0, 100019, frozenset(), frozenset({0}))
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="union window of 0 \\+ "):
        a.union(b)
    assert time.perf_counter() - started < 1
    # a window of 3 + 6 or 9 + 1 positions fits a cap of 10, 3 + 8 or
    # 10 + 1 does not
    state_cap(10)
    c = UPSet(3, 2, frozenset(), frozenset({1}))
    six = UPSet(0, 6, frozenset(), frozenset({0}))
    assert c.union(six).members_upto(20) == [0, 3, 5, 6, 7, 9, 11, 12, 13,
                                             15, 17, 18, 19]
    assert UPSet.from_finite([8]).complement().members_upto(10) == [
        0, 1, 2, 3, 4, 5, 6, 7, 9]
    eight = UPSet(0, 8, frozenset(), frozenset({0}))
    for op in (c.union, c.intersect, c.difference):
        with pytest.raises(ResourceLimitError,
                           match=f"{op.__name__} window of 3 \\+ 8 "):
            op(eight)
    with pytest.raises(ResourceLimitError, match="complement window"):
        UPSet.from_finite([9]).complement()


def test_boolean_ops():
    rng = random.Random(43)
    for _ in range(150):
        a = _random_upset(rng)
        b = _random_upset(rng)
        bound = a.threshold + b.threshold + 2 * a.period * b.period + 4
        am = set(a.members_upto(bound))
        bm = set(b.members_upto(bound))
        assert set(a.union(b).members_upto(bound)) == am | bm
        assert set(a.intersect(b).members_upto(bound)) == am & bm
        assert set(a.difference(b).members_upto(bound)) == am - bm
        comp = a.complement()
        assert set(comp.members_upto(bound)) == set(range(bound)) - am
        assert same_set(comp.complement(), a)
        assert same_set(a, a.canonicalize())
        assert not same_set(a, comp)


def test_minkowski_sum_matches_oracle():
    rng = random.Random(47)
    for _ in range(80):
        a = _random_upset(rng, max_n=4, max_d=4)
        b = _random_upset(rng, max_n=4, max_d=4)
        s = minkowski_sum(a, b)
        bound = minkowski_validity_bound(a, b)
        assert set(s.members_upto(bound)) == \
            {x for x in brute_force_oracle(a, b) if x < bound}
    assert minkowski_sum(UPSet.empty(), UPSet.naturals()).is_empty()
    assert same_set(minkowski_sum(UPSet.from_finite([0]), UPSet.naturals()),
                    UPSet.naturals())


def test_normal_form_roundtrip():
    rng = random.Random(53)
    for _ in range(200):
        s = _random_upset(rng).canonicalize()
        nf = to_normal_form(s)
        assert nf.threshold >= nf.period >= 1
        # sizes cover members up to the threshold inclusive,
        # classes (1..d, d standing for 0) cover everything beyond
        assert all(0 <= x <= nf.threshold for x in nf.sizes)
        assert all(1 <= h <= nf.period for h in nf.classes)
        assert set(nf.sizes) == {x for x in s.members_upto(nf.threshold + 1)}
        back = from_normal_form(nf)
        assert same_set(back, s)
    nf = to_normal_form(UPSet(3, 3, frozenset(), frozenset([2])))
    assert (nf.threshold, nf.period) == (3, 3)
    assert nf.sizes == frozenset()
    assert nf.classes == frozenset([2])


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalFormDescriptor(2, 3, frozenset(), frozenset())   # N < d
    with pytest.raises(ValueError):
        NormalFormDescriptor(3, 3, frozenset([4]), frozenset())
    with pytest.raises(ValueError):
        NormalFormDescriptor(3, 3, frozenset(), frozenset([0]))
    with pytest.raises(ValueError):
        NormalFormDescriptor(3, 3, frozenset(), frozenset([4]))
    # N itself is a legal exact size; d is the class standing for residue 0
    NormalFormDescriptor(3, 3, frozenset([3]), frozenset([3]))


def test_format_parse_roundtrip():
    assert format_upset(UPSet(1, 1, frozenset(), frozenset([0]))) == \
        "UP(init={};N=1;d=1;res={0})"
    assert format_upset(UPSet(3, 3, frozenset([1]), frozenset([2]))) == \
        "UP(init={1};N=3;d=3;res={2})"
    rng = random.Random(59)
    for _ in range(100):
        s = _random_upset(rng).canonicalize()
        assert parse_upset(format_upset(s)) == s
    assert parse_upset("UP(init={0,2};N=4;d=2;res={1})") == \
        UPSet(4, 2, frozenset([0, 2]), frozenset([1]))


def test_parse_rejects_malformed():
    for text in ("", "UP()", "UP(init={};N=1;d=0;res={0})",
                 "UP(init={};N=1;d=1;res={1})",
                 "UP(init={2,1};N=3;d=1;res={})",
                 "UP(init={3};N=3;d=1;res={})",
                 "up(init={};N=1;d=1;res={0})",
                 "UP(init={};N=-1;d=1;res={})"):
        with pytest.raises(ValueError):
            parse_upset(text)


def test_parse_require_canonical():
    text = "UP(init={};N=0;d=6;res={1,4})"
    assert parse_upset(text).period == 6
    with pytest.raises(ValueError):
        parse_upset(text, require_canonical=True)
