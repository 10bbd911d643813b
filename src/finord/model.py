"""Finite power-set structures over a linear order, and brute-force truth.

``FiniteModel(n)`` is the family of all subsets of n ordered positions:
elements are bitmasks, atoms are single bits, ``exle`` holds when some
position of the left set strictly precedes some position of the right set.

``evaluate`` computes standard truth by exhaustive enumeration, vectorized
with numpy over bool tables with one axis per open variable (n values for
an atom variable).  An atom quantifier reduces its axis; over a large table
it folds one atom at a time instead, stopping once the answer is settled,
so that no table widens by n.  A run of same-kind set quantifiers is one
join: its body is split into parts along its And chain (Or chain under
all2) and, for several variables, through what distributes over that
chain; a variable gets an axis of 2^n values when the first part that reads
it runs, and when few cells survive a part they are compacted onto one axis
of rows shared by the variables bound so far.  ``nodes.summary``, one walk
without recursion, gives the nestings the limits check on entry, the free
variables and nestings of each part by which the join orders its parts,
and the free variables of an atom quantifier's body when its fold
estimate needs them.
Costs are exponential and guarded by explicit limits: the nesting of
formulas, of set quantifiers and of binders (at most 32, each opening at
most one numpy axis), and the cells of every table, rows included.

``slow_evaluate`` is the same semantics as direct recursion over any finite
structure object; it exists to cross-check ``evaluate`` and to interpret
product structures, whose universe is pairs.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import and_, eq, le, or_

import numpy as np

from .formula.nodes import (And, At, Binder, Bot, Eq, Exle, FalseF, Formula,
                            Iff, Implies, MaxAtom, MinAtom, Not, Or,
                            ResourceLimitError, Term, TrueF, Variable,
                            _check_nesting, _name_sort, rebuild, summary,
                            terms_of)

DEFAULT_MAX_N = 10
DEFAULT_MAX_SET_DEPTH = 4
DEFAULT_MAX_CELLS = 2 ** 30
_SLICE_CELLS = 2 ** 18
# A join compacts its table onto rows once at most 1/_KEEP of the cells
# survive: a dense table spends a byte per cell but keeps each variable on
# its own axis, rows spend 8 bytes per variable and row.
_KEEP = 8
# Each binder opens at most one table axis, and numpy before 2.0 allows 32.
_MAX_AXES = 32

# A binding is (name, axis, values): the variable ranges over the int64
# array `values`, laid along table axis `axis`.  A folding atom quantifier
# binds one atom at a time as a one-value slice, so its axis stays size 1;
# the set variables of a join's rows share one axis, each with its values.
_Binding = tuple[str, int, np.ndarray]

# Truth function on Python bools, and the same function on bool tables.
_CONNECTIVES = {And: (and_, np.logical_and), Or: (or_, np.logical_or),
                Implies: (le, np.less_equal), Iff: (eq, np.equal)}


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
        return _tables(self.n)[2:]


@lru_cache(maxsize=16)
def _tables(n: int) -> tuple[np.ndarray, ...]:
    """The read-only arrays shared by models of size n: the bitmask of
    every set and of every atom, then the three bit tables."""
    sets = np.arange(1 << n, dtype=np.int64)
    atoms = np.int64(1) << np.arange(n, dtype=np.int64)
    pop = np.zeros(len(sets), dtype=np.int16)
    high = np.full(len(sets), -1, dtype=np.int16)
    low = np.full(len(sets), n, dtype=np.int16)
    for b in range(n):
        bit = (sets >> b) & 1
        pop += bit.astype(np.int16)
        high[bit == 1] = b
        lb = (sets & ((1 << (b + 1)) - 1)) == (1 << b)
        low[lb] = b
    tables = sets, atoms, low, high, pop
    for table in tables:
        table.flags.writeable = False
    return tables


def evaluate(model: FiniteModel, f: Formula, env: dict[str, int] | None = None,
             *, max_n: int = DEFAULT_MAX_N,
             max_set_depth: int = DEFAULT_MAX_SET_DEPTH,
             max_cells: int = DEFAULT_MAX_CELLS) -> bool:
    """Standard truth of f in the model, free variables read from env."""
    if model.n > max_n:
        raise ResourceLimitError(f"model size {model.n} exceeds limit {max_n}")
    s = summary(f)
    _check_nesting("formula", s.depth)
    _check_nesting("set quantifier", s.set_nesting, max_set_depth)
    _check_nesting("binder", s.binder_nesting, _MAX_AXES)
    env = dict(env or {})
    missing = s.free - set(env)
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")
    for name, val in env.items():
        if not 0 <= val < (1 << model.n):
            raise ValueError(f"env value out of range for {name}")
        if _name_sort(name) is False and not model.is_atom(val):
            raise ValueError(f"atom variable {name} must be bound to an atom")
    arr = _Evaluator(model, max_cells).eval(f, (), 0, env)
    return bool(arr.reshape(()))


class _Evaluator:
    """Recursive table builder.  Every array returned for a node has
    ndim == naxes (the number of axes open at that node), with each axis
    sized either 1 or its full length; binary connectives broadcast and
    quantifiers reduce the axes they open, which come last."""

    def __init__(self, model: FiniteModel, max_cells: int):
        self.model = model
        self.max_cells = max_cells
        self.plans: dict[int, tuple] = {}
        self.set_values, self.atom_values = _tables(model.n)[:2]
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
            quant = self._join if f.over_sets else self._quant
            return quant(f, binds, naxes, env)
        return self._atomic(f, binds, naxes, env)

    def _plan(self, f: Binder) -> tuple[list[str], list[tuple[int, Formula]]]:
        """The run of same-kind set binders that f opens, and the parts of
        its body, each with the index of the last of those variables it
        reads.  Parts run in order of that index, then of set-binder and
        binder nesting, so that cheap parts thin the rows first."""
        names, body = [], f
        while (isinstance(body, Binder) and body.over_sets
               and body.exists == f.exists and body.var not in names):
            names.append(body.var)
            body = body.body
        keyed = []
        for g in self._split(body, f.exists, len(names) > 1):
            s = summary(g)
            level = max([i for i, v in enumerate(names) if v in s.free],
                        default=-1)
            keyed.append((level, s.set_nesting, s.binder_nesting, len(keyed),
                          g))
        return names, [(k[0], k[-1]) for k in sorted(keyed)]

    def _split(self, f: Formula, exists: bool, deep: bool) -> list[Formula]:
        """The parts of f's And chain (Or chain when not exists).  When
        deep, that is when the block has several variables, a part is
        split further through what distributes over the chain: an atom
        binder of the other kind, which stays on every piece so that a
        vacuous one keeps its meaning at size 0, and an implication's
        right side.  The pieces can then run as soon as their own
        variables are bound."""
        parts, stack = [], [f]
        while stack:
            g = stack.pop()
            if type(g) is (And if exists else Or):
                stack += (g.right, g.left)
                continue
            implies = type(g) is Implies
            pieces = [g]
            if deep and (implies or isinstance(g, Binder) and not g.over_sets
                         and g.exists != exists):
                pieces = self._split(g.right if implies else g.body, exists,
                                     deep)
            if len(pieces) == 1:
                parts.append(g)
                continue
            parts += [rebuild(g, (g.left, h) if implies else (h,))
                      for h in pieces]
        return parts

    def _join(self, f: Binder, binds: tuple[_Binding, ...], naxes: int,
              env: dict) -> np.ndarray:
        """Run the block that f opens as a join.  A variable gets its own
        axis when the first part that reads it runs, and each part is
        merged into acc.  When at most 1/_KEEP of the cells stay undecided
        (true under ex2, false under all2) for some outer assignment, they
        move onto one row axis that the bound variables share.  After the
        last part the block's axes are reduced, so a block of one part is a
        plain axis reduction."""
        plan = self.plans.get(id(f))
        if plan is None:
            plan = self.plans[id(f)] = self._plan(f)
        names, parts = plan
        exists = f.exists
        block: list[_Binding] = []
        sizes: list[int] = []
        acc: np.ndarray | None = None
        for i, (level, g) in enumerate(parts):
            while len(block) <= level:
                block.append((names[len(block)], naxes + len(sizes),
                              self.set_values))
                sizes.append(len(self.set_values))
                acc = None if acc is None else acc[..., None]
            table = self.eval(g, binds + tuple(block), naxes + len(sizes), env)
            if table.size == 1:
                # one value for every cell: it settles the block or
                # leaves acc as it is
                if bool(table.reshape(())) != exists:
                    return self._const(not exists, naxes)
                continue
            acc = table if acc is None else self._merge(
                np.logical_and if exists else np.logical_or, acc, table)
            if not sizes or i + 1 == len(parts):
                continue
            live = acc if exists else ~acc
            if naxes:
                live = live.any(axis=tuple(range(naxes)))
            count = np.count_nonzero(live) * prod(sizes) // live.size
            if not count:
                return self._const(not exists, naxes)
            if _KEEP * count <= prod(sizes):
                self._guard(acc.shape[:naxes] + (count,))
                rows = np.nonzero(np.broadcast_to(live, sizes))
                block = [(name, naxes, values[rows[axis - naxes]])
                         for name, axis, values in block]
                acc = np.broadcast_to(acc, acc.shape[:naxes] + tuple(sizes))
                acc, sizes = acc[(Ellipsis,) + rows], [count]
        if acc is None:
            return self._const(exists, naxes)
        axes = tuple(range(naxes, acc.ndim))
        return acc.any(axis=axes) if exists else acc.all(axis=axes)

    def _quant(self, f: Binder, binds: tuple[_Binding, ...], naxes: int,
               env: dict) -> np.ndarray:
        """Reduce an atom quantifier's body over a new last axis: in one
        piece or, when the estimated live table exceeds _SLICE_CELLS, one
        atom at a time until the answer is settled.  The estimate counts
        the open axes the body reads; the body is walked for its free
        variables only when all open axes together exceed the threshold."""
        exists = f.exists
        values = self.atom_values
        if not len(values):
            return self._const(not exists, naxes)
        pieces = [values]
        sizes = {axis: len(v) for _, axis, v in binds}
        if len(values) * prod(sizes.values()) > _SLICE_CELLS:
            free = summary(f.body).free
            sizes = {axis: len(v) for name, axis, v in binds if name in free}
            if len(values) * prod(sizes.values()) > _SLICE_CELLS:
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
        cells = prod(shape)
        if cells > self.max_cells:
            raise ResourceLimitError(
                f"table of {cells} cells exceeds limit {self.max_cells}")

    # Every bool table returned by eval() is freshly allocated for exactly
    # one parent node, so a full-shaped operand can safely serve as the
    # output buffer; this keeps conjunction chains at one live table.
    # Operands have one ndim and each axis is 1 or full, so the broadcast
    # shape is the larger size per axis.

    def _merge(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        shape = tuple(map(max, a.shape, b.shape))
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
