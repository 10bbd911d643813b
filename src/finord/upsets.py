"""Ultimately periodic sets of naturals.

An UPSet denotes ``init ∪ {n >= threshold : n mod period in residues}``.
Values are plain frozen records; nothing is canonicalized implicitly.
``canonicalize`` produces the unique minimal representation (least period,
then least threshold), and two UPSets denote the same set of naturals
exactly when their canonical forms are structurally equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm
from typing import Callable, Iterable

from .formula.nodes import ResourceLimitError


@dataclass(frozen=True)
class UPSet:
    threshold: int
    period: int
    init: frozenset[int]
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be a natural")
        if self.period < 1:
            raise ValueError("period must be positive")
        object.__setattr__(self, "init", frozenset(self.init))
        object.__setattr__(self, "residues", frozenset(self.residues))
        if not all(0 <= x < self.threshold for x in self.init):
            raise ValueError("init must lie below the threshold")
        if not all(0 <= r < self.period for r in self.residues):
            raise ValueError("residues must lie below the period")

    @classmethod
    def empty(cls) -> "UPSet":
        return cls(0, 1, frozenset(), frozenset())

    @classmethod
    def naturals(cls) -> "UPSet":
        return cls(0, 1, frozenset(), frozenset({0}))

    @classmethod
    def from_finite(cls, members: Iterable[int]) -> "UPSet":
        ms = frozenset(members)
        bound = max(ms) + 1 if ms else 0
        return cls(bound, 1, ms, frozenset())

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("member is defined on naturals")
        if n < self.threshold:
            return n in self.init
        return (n % self.period) in self.residues

    def members_upto(self, bound: int) -> list[int]:
        """All members strictly below bound, ascending."""
        return [n for n in range(bound) if self.member(n)]

    def is_empty(self) -> bool:
        return not self.init and not self.residues

    def min_element(self) -> int | None:
        """Least member, None when the set is empty: the least of init, or
        else the first member of one period from the threshold on, where
        residue r first occurs at threshold + (r - threshold) mod period."""
        if self.init:
            return min(self.init)
        return min((self.threshold + (r - self.threshold) % self.period
                    for r in self.residues), default=None)

    def canonicalize(self) -> "UPSet":
        """Minimal period (a divisor of the current one), then minimal threshold."""
        d, res = self.period, self.residues
        # the least period p puts min(res) + p in res, so p is a difference
        # r - min(res) that divides d, or else d: at most |res| trials
        low = min(res, default=0)
        steps = {r - low for r in res if r > low and d % (r - low) == 0}
        for e in sorted(steps):
            if {(k + e) % d for k in res} == res:
                d, res = e, frozenset(k % e for k in res)
                break
        if not res:
            d = 1
        # The least threshold lies just above the last x below the current
        # one where init disagrees with the periodic tail: an init member
        # outside the residues, or the top non-member of a residue class.
        # Plain loops: most inputs have a few members, where a generator
        # and max() would cost more than the scan.
        n = 0
        for x in self.init:
            if x >= n and x % d not in res:
                n = x + 1
        for r in res:
            x = self.threshold - 1 - (self.threshold - 1 - r) % d
            while x in self.init:
                x -= d
            if x >= n:
                n = x + 1
        return UPSet(n, d, frozenset(x for x in self.init if x < n), res)

    def complement(self) -> "UPSet":
        return _pointwise("complement", self, self, lambda p, q: not p)

    def union(self, other: "UPSet") -> "UPSet":
        return _pointwise("union", self, other, lambda p, q: p or q)

    def intersect(self, other: "UPSet") -> "UPSet":
        return _pointwise("intersect", self, other, lambda p, q: p and q)

    def difference(self, other: "UPSet") -> "UPSet":
        return _pointwise("difference", self, other, lambda p, q: p and not q)


def same_set(a: UPSet, b: UPSet) -> bool:
    return a.canonicalize() == b.canonicalize()


def _pointwise(what: str, a: UPSet, b: UPSet,
               op: Callable[[bool, bool], bool]) -> UPSet:
    # Beyond max(thresholds) both sides are periodic in lcm of the periods,
    # so the combination is determined by one full lcm window: n + d
    # positions, the states of the result's unary automaton.
    from .automata import effective_state_cap

    d = lcm(a.period, b.period)
    n = max(a.threshold, b.threshold)
    cap = effective_state_cap()
    if n + d > cap:
        raise ResourceLimitError(
            f"{what} window of {n} + {d} positions exceeds state cap {cap}")
    init = frozenset(x for x in range(n) if op(a.member(x), b.member(x)))
    res = frozenset((n + j) % d for j in range(d) if op(a.member(n + j), b.member(n + j)))
    return UPSet(n, d, init, res).canonicalize()


def minkowski_sum(a: UPSet, b: UPSet) -> UPSet:
    """{x + y : x in a, y in b}, computed by concatenating unary automata."""
    from . import automata  # deferred: automata imports this module for UPSet

    da = unary_dfa(a.canonicalize())
    db = unary_dfa(b.canonicalize())
    return automata.lasso_spectrum(automata.concat(da, db))


def brute_force_oracle(a: UPSet, b: UPSet) -> set[int]:
    """Every pairwise sum of members below minkowski_validity_bound(a, b),
    the range in which brute force settles the Minkowski sum."""
    bound = minkowski_validity_bound(a, b)
    ys = b.members_upto(bound)
    return {x + y for x in a.members_upto(bound) for y in ys if x + y < bound}


def minkowski_validity_bound(a: UPSet, b: UPSet) -> int:
    """N_a + N_b + 4*d_a*d_b over the canonical forms of a and b."""
    ca, cb = a.canonicalize(), b.canonicalize()
    return ca.threshold + cb.threshold + 4 * ca.period * cb.period


def unary_dfa(s: UPSet):
    """One-track-free (zero-track) automaton accepting exactly the lengths in s."""
    from . import automata

    n, d = s.threshold, s.period
    count = n + d
    transitions = []
    for i in range(count):
        nxt = i + 1 if i + 1 < count else n
        transitions.append((nxt,))
    accepting = frozenset(
        i for i in range(count)
        if (i in s.init if i < n else (i % d) in s.residues))
    return automata.Dfa(tracks=(), transitions=tuple(transitions),
                        initial=0, accepting=accepting)


@dataclass(frozen=True)
class NormalFormDescriptor:
    """Data for the disjunctive shape: finitely many exact sizes below the
    threshold, plus residue classes (1..period, with period standing for 0)
    beyond it."""
    threshold: int
    period: int
    sizes: frozenset[int]
    classes: frozenset[int]

    def __post_init__(self) -> None:
        if self.threshold < self.period:
            raise ValueError("threshold must be at least the period")
        if not all(0 <= i <= self.threshold for i in self.sizes):
            raise ValueError("sizes must lie in [0, threshold]")
        if not all(1 <= h <= self.period for h in self.classes):
            raise ValueError("classes must lie in [1, period]")


def to_normal_form(s: UPSet) -> NormalFormDescriptor:
    c = s.canonicalize()
    d = c.period
    n = max(c.threshold, d)
    sizes = frozenset(i for i in range(n + 1) if c.member(i))
    classes = frozenset(h for h in range(1, d + 1)
                        if c.member(n + 1 + ((h - (n + 1)) % d)))
    return NormalFormDescriptor(threshold=n, period=d, sizes=sizes, classes=classes)


def from_normal_form(nf: NormalFormDescriptor) -> UPSet:
    """The set a descriptor denotes (the semantic inverse of to_normal_form)."""
    res = frozenset(h % nf.period for h in nf.classes)
    return UPSet(nf.threshold + 1, nf.period,
                 frozenset(nf.sizes), res).canonicalize()


_UP_SHAPE = re.compile(
    r"^UP\(init=\{([0-9,]*)\};N=([0-9]+);d=([0-9]+);res=\{([0-9,]*)\}\)$")


def format_upset(s: UPSet) -> str:
    init = ",".join(str(x) for x in sorted(s.init))
    res = ",".join(str(r) for r in sorted(s.residues))
    return f"UP(init={{{init}}};N={s.threshold};d={s.period};res={{{res}}})"


def parse_upset(text: str, require_canonical: bool = False) -> UPSet:
    compact = "".join(text.split())
    m = _UP_SHAPE.match(compact)
    if m is None:
        raise ValueError(f"not an UP(...) serialization: {text!r}")
    init = _nat_list(m.group(1))
    res = _nat_list(m.group(4))
    s = UPSet(int(m.group(2)), int(m.group(3)), frozenset(init), frozenset(res))
    if require_canonical and s != s.canonicalize():
        raise ValueError(f"not in canonical form: {text!r}")
    return s


def _nat_list(body: str) -> list[int]:
    if not body:
        return []
    parts = body.split(",")
    if "" in parts:
        raise ValueError(f"malformed number list: {body!r}")
    xs = [int(p) for p in parts]
    if any(y <= x for x, y in zip(xs, xs[1:])):
        raise ValueError(f"list must be strictly increasing: {body!r}")
    return xs
