"""Finite power-set structures over a linear order, and brute-force truth.

``FiniteModel(n)`` is the family of all subsets of n ordered positions:
elements are bitmasks, atoms are single bits, ``exle`` holds when some
position of the left set strictly precedes some position of the right set.

``evaluate`` computes standard truth by exhaustive enumeration, vectorized
with numpy: each open variable contributes one table axis (2^n values for a
set variable, n for an atom variable) and quantifiers reduce their axis.
Over large tables an atom quantifier instead folds one atom at a time,
stopping once the answer is settled, so that no table widens by n.
Costs are exponential and guarded by explicit limits, and at most 32
binders may be open at once.

``slow_evaluate`` is the same semantics as direct recursion over any finite
structure object; it exists to cross-check ``evaluate`` and to interpret
product structures, whose universe is pairs.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, eq, le, or_

import numpy as np

from .formula.nodes import (And, At, Binder, Bot, Eq, Exle, FalseF, Formula,
                            Iff, Implies, MaxAtom, MinAtom, Not, Or, Term,
                            TrueF, Variable, _name_sort, free_vars,
                            quantifier_depths, terms_of)

DEFAULT_MAX_N = 10
DEFAULT_MAX_SET_DEPTH = 4
DEFAULT_MAX_CELLS = 2 ** 30
_SLICE_CELLS = 2 ** 18
# Each binder opens one table axis, and numpy before 2.0 allows 32 axes.
_MAX_AXES = 32

# A binding is (name, axis, values): the variable ranges over the int64
# array `values`, laid along table axis `axis`.  A folding atom quantifier
# binds one atom at a time as a one-value slice, so its axis stays size 1.
_Binding = tuple[str, int, np.ndarray]

# Truth function on Python bools, and the same function on bool tables.
_CONNECTIVES = {And: (and_, np.logical_and), Or: (or_, np.logical_or),
                Implies: (le, np.less_equal), Iff: (eq, np.equal)}


class ResourceLimitError(RuntimeError):
    """An evaluation or construction exceeded its configured budget."""


class FiniteModel:
    """All subsets of positions 0..n-1, ordered by position."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("size must be a natural")
        self.n = n

    def __repr__(self) -> str:
        return f"FiniteModel({self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteModel) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("FiniteModel", self.n))

    # -- plain structure interface (bitmask elements) --

    @property
    def bot(self) -> int:
        return 0

    def universe(self) -> range:
        return range(1 << self.n)

    def atoms(self) -> list[int]:
        return [1 << i for i in range(self.n)]

    def subset(self, u: int, v: int) -> bool:
        return (u & ~v) == 0

    def is_atom(self, u: int) -> bool:
        return u != 0 and (u & (u - 1)) == 0

    def exle(self, u: int, v: int) -> bool:
        if u == 0 or v == 0:
            return False
        return (u & -u).bit_length() - 1 < v.bit_length() - 1

    def least_atom(self) -> int | None:
        return 1 if self.n else None

    def greatest_atom(self) -> int | None:
        return 1 << (self.n - 1) if self.n else None

    # -- bit tables for the vectorized evaluator --

    def bit_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lowest set bit index or n, highest set bit index or -1, popcount)
        for every mask below 2^n; read-only, shared by models of one size."""
        return _bit_tables(self.n)


@lru_cache(maxsize=16)
def _bit_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    size = 1 << n
    xs = np.arange(size, dtype=np.int64)
    pop = np.zeros(size, dtype=np.int16)
    high = np.full(size, -1, dtype=np.int16)
    low = np.full(size, n, dtype=np.int16)
    for b in range(n):
        bit = (xs >> b) & 1
        pop += bit.astype(np.int16)
        high[bit == 1] = b
        lb = (xs & ((1 << (b + 1)) - 1)) == (1 << b)
        low[lb] = b
    for table in (low, high, pop):
        table.flags.writeable = False
    return low, high, pop


def evaluate(model: FiniteModel, f: Formula, env: dict[str, int] | None = None,
             *, max_n: int = DEFAULT_MAX_N,
             max_set_depth: int = DEFAULT_MAX_SET_DEPTH,
             max_cells: int = DEFAULT_MAX_CELLS) -> bool:
    """Standard truth of f in the model, free variables read from env."""
    if model.n > max_n:
        raise ResourceLimitError(f"model size {model.n} exceeds limit {max_n}")
    depth = quantifier_depths(f)[0]
    if depth > max_set_depth:
        raise ResourceLimitError(
            f"set quantifier nesting {depth} exceeds limit {max_set_depth}")
    env = dict(env or {})
    missing = free_vars(f) - set(env)
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")
    for name, val in env.items():
        if not 0 <= val < (1 << model.n):
            raise ValueError(f"env value out of range for {name}")
        if _name_sort(name) is False and not model.is_atom(val):
            raise ValueError(f"atom variable {name} must be bound to an atom")
    ev = _Evaluator(model, max_cells)
    arr = ev.eval(f, (), 0, env)
    return bool(arr.reshape(()))


class _Evaluator:
    """Recursive table builder.  Every array returned for a node has
    ndim == naxes (the number of axis bindings open at that node), with each
    axis sized either 1 or its full domain; binary connectives broadcast and
    quantifiers reduce their own (innermost, hence last) axis."""

    def __init__(self, model: FiniteModel, max_cells: int):
        self.model = model
        self.max_cells = max_cells
        n = model.n
        self.set_values = np.arange(1 << n, dtype=np.int64)
        self.atom_values = (np.int64(1) << np.arange(n, dtype=np.int64))
        self.low, self.high, self.pop = model.bit_tables()

    def eval(self, f: Formula, binds: tuple[_Binding, ...], naxes: int,
             env: dict) -> np.ndarray:
        if isinstance(f, TrueF):
            return self._const(True, naxes)
        if isinstance(f, FalseF):
            return self._const(False, naxes)
        if isinstance(f, Not):
            return self._neg(self.eval(f.body, binds, naxes, env))
        ops = _CONNECTIVES.get(type(f))
        if ops is not None:
            # a constant side either settles the result or passes the
            # other side through, negated when truth(c, True) is false
            truth, table_op = ops
            left = self.eval(f.left, binds, naxes, env)
            if left.size == 1:
                c = bool(left.reshape(()))
                if truth(c, False) == truth(c, True):
                    return self._const(truth(c, True), naxes)
                right = self.eval(f.right, binds, naxes, env)
                return right if truth(c, True) else self._neg(right)
            right = self.eval(f.right, binds, naxes, env)
            if right.size == 1:
                c = bool(right.reshape(()))
                if truth(False, c) == truth(True, c):
                    return self._const(truth(True, c), naxes)
                return left if truth(True, c) else self._neg(left)
            return self._merge(table_op, left, right)
        if isinstance(f, Binder):
            return self._quant(f, binds, naxes, env)
        return self._atomic(f, binds, naxes, env)

    def _quant(self, f: Binder, binds: tuple[_Binding, ...], naxes: int,
               env: dict) -> np.ndarray:
        """Reduce the body over the variable's domain, bound on a new last
        axis: in one piece, or, for an atom whose estimated live table
        exceeds _SLICE_CELLS, one atom at a time until the answer is
        settled."""
        if naxes >= _MAX_AXES:
            raise ResourceLimitError(
                f"binder nesting {naxes + 1} exceeds limit {_MAX_AXES}")
        exists = f.exists
        values = self.set_values if f.over_sets else self.atom_values
        if not len(values):
            return self._const(not exists, naxes)
        pieces = [values]
        if not f.over_sets:
            live = free_vars(f.body)
            est = len(values)
            for name, _axis, bound in binds:
                if name in live:
                    est *= len(bound)
            if est > _SLICE_CELLS:
                pieces = [values[i:i + 1] for i in range(len(values))]
        op = np.logical_or if exists else np.logical_and
        acc: np.ndarray | None = None
        for piece in pieces:
            inner = binds + ((f.var, naxes, piece),)
            body = self.eval(f.body, inner, naxes + 1, env)
            if body.shape[-1] == 1:
                body = body[..., 0]
            else:
                body = body.any(axis=-1) if exists else body.all(axis=-1)
            if body.size == 1:
                if bool(body.reshape(())) == exists:
                    return body
                continue
            acc = body if acc is None else self._merge(op, acc, body)
        return acc if acc is not None else self._const(not exists, naxes)

    def _atomic(self, f: Formula, binds: tuple[_Binding, ...], naxes: int,
                env: dict) -> np.ndarray:
        terms = terms_of(f)
        if not terms:
            raise TypeError(f"not a formula: {f!r}")
        args = [self._term(t, binds, naxes, env) for t in terms]
        if any(a is None for a in args):
            return self._const(False, naxes)
        if isinstance(f, At):
            return self.pop[args[0]] == 1
        a, b = args
        if isinstance(f, Eq):
            return self._merge(np.equal, a, b)
        if isinstance(f, Exle):
            return self._merge(lambda x, y: self.low[x] < self.high[y], a, b)
        # inclusion, and membership as the inclusion of an atom
        return self._merge(lambda x, y: (x & ~y) == 0, a, b)

    def _term(self, t: Term, binds: tuple[_Binding, ...], naxes: int,
              env: dict):
        """An int array shaped for the open axes, or None when the term is
        undefined (endpoint constants in the empty order)."""
        if isinstance(t, Bot):
            return self._int_const(0, naxes)
        if isinstance(t, MinAtom):
            v = self.model.least_atom()
            return None if v is None else self._int_const(v, naxes)
        if isinstance(t, MaxAtom):
            v = self.model.greatest_atom()
            return None if v is None else self._int_const(v, naxes)
        if isinstance(t, Variable):
            for name, axis, values in reversed(binds):
                if name == t.name:
                    shape = [1] * naxes
                    shape[axis] = values.shape[0]
                    return values.reshape(shape)
            if t.name in env:
                return self._int_const(env[t.name], naxes)
            raise ValueError(f"unbound variable {t.name}")
        raise TypeError(f"not a term: {t!r}")

    def _const(self, value: bool, naxes: int) -> np.ndarray:
        return np.array(bool(value), ndmin=naxes)

    def _int_const(self, value: int, naxes: int) -> np.ndarray:
        return np.array(value, dtype=np.int64, ndmin=naxes)

    def _guard(self, shape: tuple[int, ...]) -> None:
        cells = 1
        for s in shape:
            cells *= s
        if cells > self.max_cells:
            raise ResourceLimitError(
                f"table of {cells} cells exceeds limit {self.max_cells}")

    # Every bool table returned by eval() is freshly allocated for exactly
    # one parent node, so a full-shaped operand can safely serve as the
    # output buffer; this keeps conjunction chains at one live table.

    def _merge(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(a.shape, b.shape)
        self._guard(shape)
        if a.shape == shape and a.dtype == bool and a.flags.writeable:
            return op(a, b, out=a)
        if b.shape == shape and b.dtype == bool and b.flags.writeable:
            return op(a, b, out=b)
        return op(a, b)

    def _neg(self, a: np.ndarray) -> np.ndarray:
        if a.dtype == bool and a.flags.writeable:
            return np.logical_not(a, out=a)
        return ~a


# -- generic slow path: direct recursion over any finite structure --


def slow_evaluate(struct, f: Formula, env: dict | None = None) -> bool:
    """Reference recursion: quantifiers loop over the structure's universe
    or atoms with short-circuiting.  Usable with FiniteModel and
    ProductStructure alike."""
    env = dict(env or {})
    return _slow(struct, f, env)


def _slow(m, f: Formula, env: dict) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not _slow(m, f.body, env)
    if isinstance(f, And):
        return _slow(m, f.left, env) and _slow(m, f.right, env)
    if isinstance(f, Or):
        return _slow(m, f.left, env) or _slow(m, f.right, env)
    if isinstance(f, Implies):
        return not _slow(m, f.left, env) or _slow(m, f.right, env)
    if isinstance(f, Iff):
        return _slow(m, f.left, env) == _slow(m, f.right, env)
    if isinstance(f, Binder):
        domain = m.universe() if f.over_sets else m.atoms()
        want = f.exists
        saved = env.get(f.var, _UNDEF)
        try:
            for u in domain:
                env[f.var] = u
                if _slow(m, f.body, env) == want:
                    return want
            return not want
        finally:
            if saved is _UNDEF:
                env.pop(f.var, None)
            else:
                env[f.var] = saved
    terms = terms_of(f)
    if not terms:
        raise TypeError(f"not a formula: {f!r}")
    args = [_slow_term(m, t, env) for t in terms]
    if any(a is _UNDEF for a in args):
        return False
    if isinstance(f, At):
        return m.is_atom(args[0])
    a, b = args
    if isinstance(f, Eq):
        return a == b
    if isinstance(f, Exle):
        return m.exle(a, b)
    # inclusion, and membership as the inclusion of an atom
    return m.subset(a, b)


_UNDEF = object()


def _slow_term(m, t: Term, env: dict):
    if isinstance(t, Bot):
        return m.bot
    if isinstance(t, MinAtom):
        v = m.least_atom()
        return _UNDEF if v is None else v
    if isinstance(t, MaxAtom):
        v = m.greatest_atom()
        return _UNDEF if v is None else v
    if isinstance(t, Variable):
        if t.name not in env:
            raise ValueError(f"unbound variable {t.name}")
        return env[t.name]
    raise TypeError(f"not a term: {t!r}")


# -- products --


class ProductStructure:
    """Pairs of elements with componentwise inclusion; the cross order makes
    every nonempty left component precede every nonempty right component."""

    def __init__(self, left: FiniteModel, right: FiniteModel):
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"ProductStructure({self.left!r}, {self.right!r})"

    @property
    def bot(self) -> tuple[int, int]:
        return (0, 0)

    def universe(self) -> list[tuple[int, int]]:
        return [(a, b) for a in self.left.universe()
                for b in self.right.universe()]

    def atoms(self) -> list[tuple[int, int]]:
        return ([(a, 0) for a in self.left.atoms()]
                + [(0, b) for b in self.right.atoms()])

    def subset(self, u: tuple[int, int], v: tuple[int, int]) -> bool:
        return self.left.subset(u[0], v[0]) and self.right.subset(u[1], v[1])

    def is_atom(self, u: tuple[int, int]) -> bool:
        a, b = u
        return (self.left.is_atom(a) and b == 0) \
            or (a == 0 and self.right.is_atom(b))

    def exle(self, u: tuple[int, int], v: tuple[int, int]) -> bool:
        (a, b), (c, d) = u, v
        return ((a != 0 and d != 0)
                or self.left.exle(a, c)
                or self.right.exle(b, d))

    def least_atom(self) -> tuple[int, int] | None:
        if self.left.n:
            return (1, 0)
        if self.right.n:
            return (0, 1)
        return None

    def greatest_atom(self) -> tuple[int, int] | None:
        if self.right.n:
            return (0, 1 << (self.right.n - 1))
        if self.left.n:
            return (1 << (self.left.n - 1), 0)
        return None


def product(left: FiniteModel, right: FiniteModel) -> ProductStructure:
    return ProductStructure(left, right)


def canonical_iso_check(m: int, n: int) -> bool:
    """Verify that gluing (A, B) to A with B shifted past position m is an
    isomorphism from the pair structure onto FiniteModel(m + n): a bijection
    preserving bot, inclusion, the cross order, and atomhood, both ways.
    Every fact is read from the two structures themselves."""
    prod = ProductStructure(FiniteModel(m), FiniteModel(n))
    target = FiniteModel(m + n)
    pairs = prod.universe()
    glue = {u: u[0] | u[1] << m for u in pairs}
    if (sorted(glue.values()) != list(target.universe())
            or glue[prod.bot] != target.bot
            or any(prod.is_atom(u) != target.is_atom(glue[u]) for u in pairs)):
        return False
    return all(prod.subset(u, v) == target.subset(glue[u], glue[v])
               and prod.exle(u, v) == target.exle(glue[u], glue[v])
               for u in pairs for v in pairs)
