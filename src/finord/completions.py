"""Limit points of the finite orders: residue tables, their arithmetic,
and three-valued decision of sentences at a point.

A completed model is either a finite size (``Fin(n)``) or an infinite point
described by a residue function (``Inf(spec)``): a coherent choice of
``r(p, j) mod p^j`` per prime power, stored at the maximal power per prime.
``ZeroShift(c)`` is the everywhere-defined function ``d ↦ c mod d``; partial
tables describe families of points, and questions they cannot settle come
back ``UNDETERMINED`` rather than defaulting.  Every reader decodes a table
through ``_levels``, which checks it and keeps its keys below 2^32.  At an
infinite point a sentence holds when the point's residue modulo the period
of its canonical spectrum is one of the spectrum's residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .compiler import spectrum
from .formula.nodes import Formula
from .upsets import UPSet


class Undetermined:
    """Singleton third truth value for questions a partial table leaves
    open; refuses boolean coercion so it can never silently count as an
    answer."""
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undetermined"

    def __bool__(self) -> bool:
        raise TypeError("Undetermined does not coerce to a boolean")


UNDETERMINED = Undetermined()


class ResidueSpec:
    """Base of the two residue-function descriptions."""


@dataclass(frozen=True)
class Table(ResidueSpec):
    """Finite residue choices, one ``prime_power -> residue`` entry per
    prime (the maximal stored power)."""
    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries=()):
        if hasattr(entries, "items"):
            pairs = tuple(entries.items())
        else:
            pairs = tuple(tuple(e) for e in entries)
        for pair in pairs:
            if len(pair) != 2 or not all(type(x) is int for x in pair):
                raise ValueError(f"table entry must be (prime power, residue): {pair!r}")
        object.__setattr__(self, "entries", tuple(sorted(pairs)))


@dataclass(frozen=True)
class ZeroShift(ResidueSpec):
    """The total residue function of the natural number c: d ↦ c mod d."""
    c: int

    def __post_init__(self):
        if type(self.c) is not int or self.c < 0:
            raise ValueError("shift must be a natural number")


class TypePoint:
    """Base of the two completion descriptions."""


@dataclass(frozen=True)
class Fin(TypePoint):
    """The theory of the n-atom model."""
    n: int

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError("size must be a natural number")


@dataclass(frozen=True)
class Inf(TypePoint):
    """An infinite completion (or family of them) fixed by a residue
    function; satisfies every lower size bound."""
    spec: ResidueSpec

    def __post_init__(self):
        if not isinstance(self.spec, ResidueSpec):
            raise ValueError("Inf needs a ResidueSpec")


# Table keys are factored by trial division, so they stay below this bound:
# the largest prime below it takes about 10 ms.
_MAX_KEY = 2 ** 32


def _prime_power(k: int) -> tuple[int, int] | None:
    """(p, j) with k = p**j, or None if k is not a prime power."""
    if k < 2:
        return None
    p = next((q for q in range(2, isqrt(k) + 1) if k % q == 0), k)
    j = 0
    while k % p == 0:
        k //= p
        j += 1
    return (p, j) if k == 1 else None


def _levels(spec: ResidueSpec) -> dict[int, tuple[int, int]]:
    """A table decoded as {prime: (exponent, residue)} in ascending prime
    order; ValueError at the first broken invariant."""
    if not isinstance(spec, Table):
        raise ValueError(f"unknown spec variant {type(spec).__name__}")
    levels = {}
    for key, value in spec.entries:
        if key >= _MAX_KEY:
            raise ValueError(f"key {key} is not below the key bound 2^32")
        pp = _prime_power(key)
        if pp is None:
            raise ValueError(f"key {key} is not a prime power")
        p, j = pp
        if p in levels:
            raise ValueError(f"prime {p} stored more than once")
        if not 0 <= value < key:
            raise ValueError(f"residue {value} not reduced modulo {key}")
        levels[p] = (j, value)
    return dict(sorted(levels.items()))


def validate(spec: ResidueSpec) -> list[str]:
    """The first invariant violation as a human-readable string; empty
    means ok."""
    if isinstance(spec, ZeroShift):
        return []
    try:
        _levels(spec)
    except ValueError as exc:
        return [str(exc)]
    return []


def crt_solve(congruences) -> int:
    """The unique x below the product of the (pairwise coprime) moduli with
    x ≡ residue (mod modulus) for every pair."""
    x, modulus = 0, 1
    for m, r in congruences:
        if not (isinstance(m, int) and isinstance(r, int)) or m < 1:
            raise ValueError(f"bad congruence ({m}, {r})")
        if gcd(modulus, m) != 1:
            raise ValueError(f"moduli are not pairwise coprime at {m}")
        r %= m
        # lift: x + modulus * t ≡ r (mod m)
        t = ((r - x) * pow(modulus, -1, m)) % m if m > 1 else 0
        x += modulus * t
        modulus *= m
    return x


def residue_extend(spec: ResidueSpec, d: int):
    """The induced residue mod d (< d), UNDETERMINED when a table lacks the
    needed prime-power coverage."""
    if not isinstance(d, int) or d <= 1:
        raise ValueError("modulus must exceed 1")
    if isinstance(spec, ZeroShift):
        return spec.c % d
    # divide d by the stored primes only: what is left is uncovered
    congruences = []
    for p, (j, value) in _levels(spec).items():
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        if e > j:
            return UNDETERMINED
        congruences.append((p ** e, value % p ** e))
    return crt_solve(congruences) if d == 1 else UNDETERMINED


def rep(v: int, d: int) -> int:
    """Residue-class representative in {1..d}: 0 is spoken for by d."""
    v %= d
    return d if v == 0 else v


def point_models(point: TypePoint, f: Formula):
    """Does the completed model satisfy the sentence — True, False, or
    UNDETERMINED (partial tables only)."""
    s = spectrum(f)
    if isinstance(point, Fin):
        return s.member(point.n)
    if not isinstance(point, Inf):
        raise ValueError(f"unknown point variant {type(point).__name__}")
    # an infinite point lies beyond every threshold of the canonical set
    v = 0 if s.period == 1 else residue_extend(point.spec, s.period)
    if v is UNDETERMINED:
        return UNDETERMINED
    return v in s.residues


def _shift(spec: ResidueSpec, m: int) -> ResidueSpec:
    if isinstance(spec, ZeroShift):
        return ZeroShift(spec.c + m)
    return Table({p ** j: (value + m) % p ** j
                  for p, (j, value) in _levels(spec).items()})


def point_mul(p: TypePoint, q: TypePoint) -> TypePoint:
    """The concatenation product of completions: sizes add; an infinite
    side absorbs a finite one as a shift; two tables add residue-wise at
    each prime's common power level."""
    if isinstance(p, Fin) and isinstance(q, Fin):
        return Fin(p.n + q.n)
    # the product commutes, so a finite side, and then a total residue
    # function, shifts whatever stands on the other side
    for a, b in ((p, q), (q, p)):
        if isinstance(a, Fin):
            return Inf(_shift(b.spec, a.n))
    for a, b in ((p, q), (q, p)):
        if isinstance(a.spec, ZeroShift):
            return Inf(_shift(b.spec, a.spec.c))
    left = _levels(p.spec)
    entries = {}
    for prime, (level, value) in _levels(q.spec).items():
        if prime in left:
            other_level, other_value = left[prime]
            k = prime ** min(level, other_level)
            entries[k] = (value + other_value) % k
    return Inf(Table(entries))


def pseudofinite_valid(f: Formula) -> bool:
    """True when the sentence holds in every finite model (spectrum = ℕ)."""
    return spectrum(f) == UPSet(0, 1, frozenset(), frozenset([0]))


def satisfiable_witness(f: Formula) -> int | None:
    """Least finite model size satisfying the sentence, None if there is
    none (equivalently: the negation holds in every finite model)."""
    return spectrum(f).min_element()


def format_point(point: TypePoint) -> str:
    """One-line point serialization: fin:<n>, inf:zero+<c>, or
    inf:<p>^<j>=<r>;... (ascending primes, maximal powers)."""
    if isinstance(point, Fin):
        return f"fin:{point.n}"
    if isinstance(point, Inf):
        spec = point.spec
        if isinstance(spec, ZeroShift):
            return f"inf:zero+{spec.c}"
        if isinstance(spec, Table):
            return "inf:" + ";".join(f"{p}^{j}={value}" for p, (j, value)
                                     in _levels(spec).items())
    raise ValueError(f"cannot serialize {point!r}")


def parse_point(text: str) -> TypePoint:
    """Inverse of format_point (exact roundtrip)."""
    body = text.strip()
    rest = body[4:]
    if body.startswith("fin:"):
        point = Fin(_nat(rest))
    elif not body.startswith("inf:"):
        raise ValueError(f"not a point serialization: {text!r}")
    elif rest.startswith("zero+"):
        point = Inf(ZeroShift(_nat(rest[5:])))
    else:
        entries = []
        for part in rest.split(";") if rest else ():
            head, eq, value = part.partition("=")
            base, caret, exponent = head.partition("^")
            if not eq or not caret or not value:
                raise ValueError(f"malformed table entry: {part!r}")
            p, j = _nat(base), _nat(exponent)
            # the exponent first, so that no huge power is ever computed
            if j >= _MAX_KEY.bit_length() or p ** j >= _MAX_KEY:
                raise ValueError(f"key {head} is not below the key bound 2^32")
            entries.append((p ** j, _nat(value)))
        point = Inf(Table(tuple(entries)))
    # leading zeros and non-ASCII digits parse, but do not print back
    if format_point(point) != body:
        raise ValueError(f"not in canonical point form: {text!r}")
    return point


def _nat(text: str) -> int:
    if not text.isdigit():
        raise ValueError(f"expected a natural number, got {text!r}")
    return int(text)
