"""Expected answers computed apart from the program under test.

Nothing here calls into ``finord``: sets of sizes are plain predicates with
a known threshold and period, games are solved by a naive minimax, and
point arithmetic works on plain tuples.  The workloads compare the
program's outputs against these after each pass, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Callable


@dataclass(frozen=True)
class SizeSet:
    """A set of naturals given by a predicate that is periodic with
    ``period`` from ``threshold`` on."""
    pred: Callable[[int], bool]
    threshold: int
    period: int


def rho_set(d: int, h: int) -> SizeSet:
    return SizeSet(lambda n: n >= d and n % d == h % d, d, d)


def psi_set(kind: str, i: int) -> SizeSet:
    if kind == "eq":
        return SizeSet(lambda n: n == i, i + 1, 1)
    return SizeSet(lambda n: n > i, i + 1, 1)


NATURALS = SizeSet(lambda n: True, 0, 1)


def union_set(a: SizeSet, b: SizeSet) -> SizeSet:
    return SizeSet(lambda n: a.pred(n) or b.pred(n),
                   max(a.threshold, b.threshold), lcm(a.period, b.period))


def complement_set(a: SizeSet) -> SizeSet:
    return SizeSet(lambda n: not a.pred(n), a.threshold, a.period)


def sum_set(a: SizeSet, b: SizeSet) -> SizeSet:
    """Minkowski sum by brute force: n is a member when some split
    n = x + y has x in a and y in b.  Beyond the sum of the thresholds plus
    the Frobenius bound of the two periods, the sum repeats with the lcm of
    the periods."""
    memo: dict[int, bool] = {}

    def pred(n: int) -> bool:
        if n not in memo:
            memo[n] = any(a.pred(x) and b.pred(n - x) for x in range(n + 1))
        return memo[n]

    return SizeSet(pred, a.threshold + b.threshold + 4 * a.period * b.period,
                   lcm(a.period, b.period))


def canonical(s: SizeSet) -> tuple[int, int, frozenset, frozenset]:
    """(threshold, period, init, residues) of the least period, then the
    least threshold: the unique minimal ultimately periodic description."""
    t, p = s.threshold, s.period
    vals = [s.pred(n) for n in range(t + p)]
    tail = vals[t:]
    e = next(e for e in range(1, p + 1) if p % e == 0
             and all(tail[i] == tail[(i + e) % p] for i in range(p)))
    while t > 0 and vals[t - 1] == vals[t - 1 + e]:
        t -= 1
    return (t, e, frozenset(n for n in range(t) if vals[n]),
            frozenset(n % e for n in range(t, t + e) if vals[n]))


def upset_fields(s) -> tuple[int, int, frozenset, frozenset]:
    return (s.threshold, s.period, frozenset(s.init), frozenset(s.residues))


def upset_member(s, n: int) -> bool:
    """Membership read straight off the fields of an ``UPSet``-shaped
    value."""
    if n < s.threshold:
        return n in s.init
    return n % s.period in s.residues


def as_size_set(s) -> SizeSet:
    return SizeSet(lambda n: upset_member(s, n), s.threshold, s.period)


def spectrum_matches(s, expected: SizeSet) -> bool:
    """The program's spectrum is exactly the canonical form of the
    expected set."""
    return upset_fields(s) == canonical(expected)


def is_canonical(s) -> bool:
    return upset_fields(s) == canonical(as_size_set(s))


def table_candidates(entries, d: int) -> list[int]:
    """Residues mod d that agree with every (prime power, residue) entry of
    a table, found by a direct scan."""
    return [x for x in range(d)
            if all(x % gcd(q, d) == r % gcd(q, d) for q, r in entries)]


def inf_expected(expected: SizeSet, point):
    """Truth of the sentence at ``("zs", c)`` or ``("tab", entries)``;
    ``None`` when a table does not pin the residue modulo the spectrum's
    canonical period."""
    _t, e, _init, res = canonical(expected)
    if point[0] == "zs":
        return point[1] % e in res
    cands = table_candidates(point[1], e)
    if len(cands) != 1:
        return None
    return cands[0] in res


# -- limit points as plain tuples: ("fin", n), ("zs", c), ("tab", entries) --


def _prime_of(q: int) -> tuple[int, int]:
    p = next(p for p in range(2, q + 1) if q % p == 0)
    j = 0
    while q > 1:
        q //= p
        j += 1
    return p, j


def point_add(p, q):
    """Sizes add; a finite side shifts an infinite one; two tables add at
    each shared prime's lower power."""
    if p[0] == "fin" and q[0] == "fin":
        return ("fin", p[1] + q[1])
    if p[0] == "fin":
        p, q = q, p
    if q[0] == "fin" or q[0] == "zs":
        shift = q[1]
        if p[0] == "zs":
            return ("zs", p[1] + shift)
        return ("tab", tuple(sorted((k, (v + shift) % k) for k, v in p[1])))
    if p[0] == "zs":
        return point_add(q, p)
    left = {_prime_of(k)[0]: (k, v) for k, v in p[1]}
    out = []
    for k, v in q[1]:
        prime = _prime_of(k)[0]
        if prime in left:
            k2, v2 = left[prime]
            m = min(k, k2)
            out.append((m, (v + v2) % m))
    return ("tab", tuple(sorted(out)))


def point_text(p) -> str:
    if p[0] == "fin":
        return f"fin:{p[1]}"
    if p[0] == "zs":
        return f"inf:zero+{p[1]}"
    parts = []
    for k, v in sorted(p[1], key=lambda kv: _prime_of(kv[0])[0]):
        prime, j = _prime_of(k)
        parts.append(f"{prime}^{j}={v}")
    return "inf:" + ";".join(parts)


def residue_expected(point, d: int):
    """The residue mod d a point fixes, or ``None`` when a table leaves it
    open."""
    if point[0] == "zs":
        return point[1] % d
    cands = table_candidates(point[1], d)
    return cands[0] if len(cands) == 1 else None


def crt_ok(congruences, x) -> bool:
    return (isinstance(x, int) and 0 <= x < prod(m for m, _ in congruences)
            and all(x % m == r % m for m, r in congruences))


# -- comparison games, by naive minimax --


def _low(u: int) -> int:
    return (u & -u).bit_length() - 1


def _high(u: int) -> int:
    return u.bit_length() - 1


def _exle(u: int, v: int) -> bool:
    return u != 0 and v != 0 and _low(u) < _high(v)


def _unary(u: int) -> tuple:
    return (u == 0, u != 0 and u & (u - 1) == 0, _exle(u, u))


def _binary(u: int, v: int) -> tuple:
    return (u == v, u & ~v == 0, v & ~u == 0, _exle(u, v), _exle(v, u))


def _agree(xs: tuple, ys: tuple) -> bool:
    return all(_unary(x) == _unary(y) for x, y in zip(xs, ys)) and all(
        _binary(xs[i], xs[j]) == _binary(ys[i], ys[j])
        for i in range(len(xs)) for j in range(i))


def naive_duplicator_wins(m: int, n: int, k: int) -> bool:
    """k-round comparison game on the power sets of m and n positions:
    plain minimax, no memo, agreement checked only at the end."""
    left, right = range(1 << m), range(1 << n)

    def wins(xs: tuple, ys: tuple, rounds: int) -> bool:
        if rounds == 0:
            return _agree(xs, ys)
        return (all(any(wins(xs + (c,), ys + (d,), rounds - 1) for d in right)
                    for c in left)
                and all(any(wins(xs + (c,), ys + (d,), rounds - 1)
                            for c in left)
                        for d in right))

    return wins((), (), k)


def game_violations(verdicts: dict[tuple[int, int, int], bool],
                    naive: dict[tuple[int, int, int], bool]):
    """Keys of verdicts that break a law of the game: agreement with the
    naive solver, zero rounds, reflexivity, symmetry, monotonicity in k,
    and composition (k-equivalent pairs add to k-equivalent pairs)."""
    bad = set()
    for key, want in naive.items():
        if key in verdicts and verdicts[key] != want:
            bad.add(key)
    for (m, n, k), v in verdicts.items():
        if (k == 0 or m == n) and v is not True:
            bad.add((m, n, k))
        mirror = (n, m, k)
        if mirror in verdicts and verdicts[mirror] != v:
            bad.update({(m, n, k), mirror})
        lower = (m, n, k - 1)
        if v and lower in verdicts and not verdicts[lower]:
            bad.update({(m, n, k), lower})
    true_pairs: dict[int, list[tuple[int, int]]] = {}
    for (m, n, k), v in verdicts.items():
        if v:
            true_pairs.setdefault(k, []).append((m, n))
    for k, pairs in true_pairs.items():
        for m1, n1 in pairs:
            for m2, n2 in pairs:
                total = (m1 + m2, n1 + n2, k)
                if total in verdicts and not verdicts[total]:
                    bad.update({(m1, n1, k), (m2, n2, k), total})
    return bad
