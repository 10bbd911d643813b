"""Finite power-set structures over a linear order, and brute-force truth.

``FiniteModel(n)`` is the family of all subsets of n ordered positions:
elements are bitmasks, atoms are single bits, ``exle`` holds when some
position of the left set strictly precedes some position of the right set.

``evaluate`` computes standard truth by exhaustive enumeration, vectorized
with numpy over bool tables with one axis per open variable (n values for
an atom variable, 2^n for a set variable), right-aligned: the axis opened
k-th is dimension -1-k, so a variable's values, shaped once when it is
bound, broadcast against every axis opened later.  Every run of same-kind
binders of one sort is one join.  A set block's body is split into parts
along its And chain (Or chain under all2) and, for several variables,
through what distributes over that chain; a variable gets its axis when
the first part that reads it runs, a set variable that no part reads gets
none, and when few cells survive a part they are compacted onto one axis
of rows shared by the variables bound so far.  A part ``all1 x. X(x) <->
phi`` (a conjunct under ex2, an antecedent under all2) where phi does not
read X moves X to the end of its block, where the join binds it to the one
set phi defines: X gets no 2^n axis, its set compacts onto rows like any
binding, and the part holds by construction.  An atom block's body is one
part; when its table would exceed _SLICE_CELLS, its trailing variables are
bound one atom at a time until the answer is settled, so that no table
widens by n.  ``nodes.summary``, one walk without recursion, gives the
nestings the limits check on entry, the free variables and nestings by
which a set block orders its parts, and the free variables of an atom
block's body that its slice estimate reads.  None of this depends on the
model, so each fact is stored on its node the first time it is needed, as
the node's hash is, and read by every later call at any size: the entry
summary on the node ``evaluate`` is given, a block's plan on its binder.
``==``, ``hash``, ``repr`` and ``pickle`` read only a node's fields.
Costs are exponential and guarded by explicit limits: the nesting of
formulas (308, as in every pass), of set quantifiers and of binders (at
most 32, one numpy axis each), and the cells of every table, rows included.

``slow_evaluate`` is the same semantics as direct recursion over any finite
structure object; it exists to cross-check ``evaluate`` and to interpret
product structures, whose universe is pairs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import and_, eq, le, or_

import numpy as np

from .formula.nodes import (And, At, Binder, Bot, Eq, Exle, FalseF, ForallAtom,
                            Formula, Iff, Implies, MaxAtom, Mem, MinAtom, Not,
                            Or, ResourceLimitError, Term, TrueF, Variable,
                            TRUE, _check_nesting, _name_sort, rebuild,
                            summary, terms_of)

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

# A binding is (name, values): the variable's int64 values, shaped for the
# axes open when it was bound, right-aligned.  A block variable opened as
# the k-th axis has shape (size,) + (1,) * k, a sliced atom variable is one
# atom of size 1 there, and the variables of a join's rows share one axis,
# each with its values.  A set that a comprehension defines has one value
# for each cell of the axes open when it was bound.
_Binding = tuple[str, np.ndarray]

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
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    s = _stored(f, "_summary", summary)
    _check_nesting("formula", s.depth)
    _check_nesting("set quantifier", s.set_nesting, max_set_depth)
    _check_nesting("binder", s.binder_nesting, _MAX_AXES)
    env = dict(env or {})
    missing = s.free - set(env)
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")
    for name, val in env.items():
        if type(val) is not int:
            raise ValueError(f"env value for {name} must be an int")
        if not 0 <= val < (1 << model.n):
            raise ValueError(f"env value out of range for {name}")
        if _name_sort(name) is False and not model.is_atom(val):
            raise ValueError(f"atom variable {name} must be bound to an atom")
    arr = _Evaluator(model, max_cells).eval(f, (), 0, env)
    return bool(arr.reshape(()))


def _stored(f: Formula, name: str, make):
    """make(f), stored on f under name the first time it is asked for."""
    fact = getattr(f, name, None)
    if fact is None:
        fact = make(f)
        object.__setattr__(f, name, fact)
    return fact


def _comprehension(c: Formula, names: list[str]) -> tuple | None:
    """(X, x, phi) when c is ``all1 x. X(x) <-> phi`` either way round, X
    is one of names and phi does not read X; else None."""
    if type(c) is not ForallAtom or type(c.body) is not Iff:
        return None
    for mem, phi in ((c.body.left, c.body.right), (c.body.right, c.body.left)):
        if (type(mem) is Mem and isinstance(mem.atom, Variable)
                and mem.atom.name == c.var
                and isinstance(mem.container, Variable)
                and mem.container.name in names
                and mem.container.name not in summary(phi).free):
            return mem.container.name, c.var, phi
    return None


def _plan(f: Binder) -> tuple:
    """The run of same-kind binders of one sort that f opens, the parts of
    its body, each with the index of the last of those variables it reads,
    the sets that comprehensions define, by name, and the free variables
    of an atom block's body (None in a set block).  Parts run in order of
    that index, then of set-binder and binder nesting, so that cheap parts
    thin the rows first.  An atom block's body is one part.  A set block's
    body of one part is not walked but taken to read every variable, at no
    cost: an axis it does not read keeps size 1.  Of several parts, a set
    variable that none reads is dropped, as 2^n >= 1 sets are there to
    pick; an atom block keeps every variable, since at n = 0 there is no
    atom to pick.  A comprehension ``all1 x. X(x) <-> phi`` (phi not
    reading X), a part under ex2 or the antecedent of one under all2, moves
    X last and defines it as (x, phi, the free variables of phi), by the
    one-point rule ex2 X. (X = t & psi) == psi[X := t] == all2 X. (X = t ->
    psi): the variables phi reads count as read, and the part becomes true
    (psi under all2)."""
    names, body = [], f
    while (isinstance(body, Binder) and body.over_sets == f.over_sets
           and body.exists == f.exists and body.var not in names):
        names.append(body.var)
        body = body.body
    if not f.over_sets:
        return names, [(len(names) - 1, body)], {}, summary(body).free
    exists, found = f.exists, None
    parts = _split(body, exists, len(names) > 1)
    for i, g in enumerate(parts):
        found = (type(g) is (ForallAtom if exists else Implies)
                 and _comprehension(g if exists else g.left, names))
        if found:
            names.remove(found[0])
            names.append(found[0])
            parts[i] = TRUE if exists else g.right
            break
    if len(parts) == 1 and not found:
        return names, [(len(names) - 1, body)], {}, None
    summaries = [summary(g) for g in parts]
    defined = {}
    read = frozenset().union(*(s.free for s in summaries))
    if found and found[0] in read:
        free = summary(found[2]).free
        defined = {found[0]: (*found[1:], free)}
        read |= free
    names = [v for v in names if v in read]
    keyed = []
    for g, s in zip(parts, summaries):
        level = max([i for i, v in enumerate(names) if v in s.free],
                    default=-1)
        keyed.append((level, s.set_nesting, s.binder_nesting, len(keyed), g))
    return names, [(k[0], k[-1]) for k in sorted(keyed)], defined, None


def _split(f: Formula, exists: bool, deep: bool) -> list[Formula]:
    """The parts of f's And chain (Or chain when not exists).  When deep,
    that is when the block has several variables, a part is split further
    through what distributes over the chain: an atom binder of the other
    kind, which stays on every piece so that a vacuous one keeps its
    meaning at size 0, and an implication's right side.  The pieces can
    then run as soon as their own variables are bound."""
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
            pieces = _split(g.right if implies else g.body, exists, deep)
        if len(pieces) == 1:
            parts.append(g)
            continue
        parts += [rebuild(g, (g.left, h) if implies else (h,))
                  for h in pieces]
    return parts


class _Evaluator:
    """Recursive table builder.  Axes are right-aligned: the axis opened
    k-th sits at dimension -1-k of every array, so an array shaped for the
    axes open when it was made broadcasts against every axis opened later,
    and each axis is sized either 1 or its full length.  Binary connectives
    broadcast and quantifiers reduce the axes they open, which lead."""

    def __init__(self, model: FiniteModel, max_cells: int):
        self.model = model
        self.max_cells = max_cells
        self.set_values, self.atom_values = _tables(model.n)[:2]
        self.low, self.high, self.pop = model.bit_tables()

    def eval(self, f: Formula, binds: tuple[_Binding, ...], naxes: int,
             env: dict) -> np.ndarray:
        if isinstance(f, TrueF):
            return np.array(True)
        if isinstance(f, FalseF):
            return np.array(False)
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
                    return np.array(truth(c, True))
                right = self.eval(f.right, binds, naxes, env)
                return right if truth(c, True) else self._neg(right)
            right = self.eval(f.right, binds, naxes, env)
            if right.size == 1:
                c = bool(right.reshape(()))
                if truth(False, c) == truth(True, c):
                    return np.array(truth(True, c))
                return left if truth(True, c) else self._neg(left)
            return self._merge(table_op, left, right)
        if isinstance(f, Binder):
            return self._join(f, binds, naxes, env)
        return self._atomic(f, binds, env)

    def _join(self, f: Binder, binds: tuple[_Binding, ...], naxes: int,
              env: dict) -> np.ndarray:
        """Run the block that f opens over n atoms or 2^n sets (a set that a
        comprehension defines over none): once or, when an atom block's
        table would exceed _SLICE_CELLS, once per value of its sliced
        variables, each bound as a one-value slice, until one run settles
        the block."""
        exists = f.exists
        values = self.set_values if f.over_sets else self.atom_values
        if not len(values):
            return np.array(not exists)
        plan = _stored(f, "_plan", _plan)
        names, _, _, free = plan
        domains = [values] * len(names)
        sliced = [] if f.over_sets else self._sliced(names, free, binds,
                                                     len(values))
        if not sliced:
            return self._run(exists, plan, domains, binds, naxes, env)
        op = np.logical_or if exists else np.logical_and
        acc: np.ndarray | None = None
        for picks in itertools.product(range(len(values)), repeat=len(sliced)):
            for i, a in zip(sliced, picks):
                domains[i] = values[a:a + 1]
            table = self._run(exists, plan, domains, binds, naxes, env)
            if table.size == 1:
                if bool(table.reshape(())) == exists:
                    return table
                continue
            acc = table if acc is None else self._merge(op, acc, table)
        return acc if acc is not None else np.array(not exists)

    def _sliced(self, names: list[str], free: frozenset[str],
                binds: tuple[_Binding, ...], n: int) -> list[int]:
        """The fewest trailing variables of an atom block that its body,
        whose free variables are free, reads and that, sliced, bring n^(read
        variables left) times the distinct open axes the body reads to at
        most _SLICE_CELLS."""
        read = [i for i, v in enumerate(names) if v in free]
        open_cells = prod({axis: size for name, v in binds if name in free
                           for axis, size in enumerate(reversed(v.shape))
                           if size > 1}.values())
        keep = len(read)
        while keep and n ** keep * open_cells > _SLICE_CELLS:
            keep -= 1
        return read[keep:]

    def _run(self, exists: bool, plan: tuple, domains: list[np.ndarray],
             binds: tuple[_Binding, ...], naxes: int, env: dict) -> np.ndarray:
        """One run of a block, each variable over its domain.  A variable
        gets its own axis when the first part that reads it runs, a defined
        set none, and each part is merged into acc.  When at most 1/_KEEP of
        the cells stay undecided (true under ex, false under all) for some
        outer assignment, they move onto one row axis that the bound
        variables share.  After the last part the block's axes are reduced,
        or only dropped when each has one value."""
        names, parts, defined, _ = plan
        block: list[_Binding] = []
        sizes: list[int] = []
        acc: np.ndarray | None = None
        for i, (level, g) in enumerate(parts):
            while len(block) <= level:
                name, k = names[len(block)], naxes + len(sizes)
                if name in defined:
                    values = self._define(*defined[name], binds + tuple(block),
                                          k, env)
                else:
                    values = domains[len(block)].reshape((-1,) + (1,) * k)
                    sizes.append(len(values))
                block.append((name, values))
            table = self.eval(g, binds + tuple(block), naxes + len(sizes), env)
            if table.size == 1:
                # one value for every cell: it settles the block or
                # leaves acc as it is
                if bool(table.reshape(())) != exists:
                    return np.array(not exists)
                continue
            acc = table if acc is None else self._merge(
                np.logical_and if exists else np.logical_or, acc, table)
            if not sizes or i + 1 == len(parts):
                continue
            live = acc if exists else ~acc
            outer = tuple(range(-min(naxes, live.ndim), 0))
            if outer:
                live = live.any(axis=outer)
            count = np.count_nonzero(live) * prod(sizes) // live.size
            if not count:
                return np.array(not exists)
            if _KEEP * count <= prod(sizes):
                lead = tuple(reversed(sizes))
                rows = np.nonzero(np.broadcast_to(live, lead))
                block = [(name, self._compact(v, rows, lead, naxes))
                         for name, v in block]
                acc, sizes = self._compact(acc, rows, lead, naxes), [count]
        if acc is None:
            return np.array(exists)
        axes = tuple(range(acc.ndim - naxes))
        if max(acc.shape[:len(axes)], default=1) == 1:
            return acc.reshape(acc.shape[len(axes):])
        return acc.any(axis=axes) if exists else acc.all(axis=axes)

    def _compact(self, v: np.ndarray, rows: tuple[np.ndarray, ...],
                 lead: tuple[int, ...], naxes: int) -> np.ndarray:
        """v, shaped for naxes open axes and the block axes lead before
        them, with the block axes replaced by one axis of the cells that
        rows picks."""
        v = v[(None,) * (len(lead) + naxes - v.ndim)]
        self._guard((len(rows[0]),) + v.shape[len(lead):])
        return np.broadcast_to(v, lead + v.shape[len(lead):])[rows]

    def _define(self, x: str, phi: Formula, free: frozenset[str],
                binds: tuple[_Binding, ...], naxes: int,
                env: dict) -> np.ndarray:
        """The set of atoms x at which phi holds, a bitmask for each cell of
        the open axes: phi runs over all atoms on one axis, or one atom at a
        time when _sliced says that table is too large."""
        atoms, n = self.atom_values, self.model.n
        mask = np.array(0)
        step = 1 if self._sliced([x], free, binds, n) else n or 1
        for lo in range(0, n, step):
            bits = atoms[lo:lo + step].reshape((-1,) + (1,) * naxes)
            table = self.eval(phi, binds + ((x, bits),), naxes + 1, env)
            self._guard(np.broadcast(table, bits).shape[1:])
            mask = mask | np.where(table, bits, 0).sum(axis=0)
        return mask

    def _atomic(self, f: Formula, binds: tuple[_Binding, ...],
                env: dict) -> np.ndarray:
        terms = terms_of(f)
        if not terms:
            raise TypeError(f"not a formula: {f!r}")
        args = [self._term(t, binds, env) for t in terms]
        if any(a is None for a in args):
            return np.array(False)
        if isinstance(f, At):
            return self.pop[args[0]] == 1
        a, b = args
        if isinstance(f, Eq):
            return self._merge(np.equal, a, b)
        if isinstance(f, Exle):
            return self._merge(lambda x, y: self.low[x] < self.high[y], a, b)
        # inclusion, and membership as the inclusion of an atom
        return self._merge(lambda x, y: (x & ~y) == 0, a, b)

    def _term(self, t: Term, binds: tuple[_Binding, ...], env: dict):
        """An int array shaped for the open axes, or None when the term is
        undefined (endpoint constants in the empty order)."""
        if isinstance(t, Bot):
            return np.array(0)
        if isinstance(t, MinAtom):
            v = self.model.least_atom()
            return None if v is None else np.array(v)
        if isinstance(t, MaxAtom):
            v = self.model.greatest_atom()
            return None if v is None else np.array(v)
        if isinstance(t, Variable):
            for name, values in reversed(binds):
                if name == t.name:
                    return values
            if t.name in env:
                return np.array(env[t.name])
            raise ValueError(f"unbound variable {t.name}")
        raise TypeError(f"not a term: {t!r}")

    def _guard(self, shape: tuple[int, ...]) -> None:
        cells = prod(shape)
        if cells > self.max_cells:
            raise ResourceLimitError(
                f"table of {cells} cells exceeds limit {self.max_cells}")

    # Every bool table returned by eval() is freshly allocated for exactly
    # one parent node, so a full-shaped operand can safely serve as the
    # output buffer; this keeps conjunction chains at one live table.

    def _merge(self, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        shape = np.broadcast(a, b).shape
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
    _check_nesting("formula", summary(f).depth)
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
    Every fact is read from the two structures themselves, for all 4^(m+n)
    pairs of elements, so m + n is held to the size ``evaluate`` holds."""
    if m + n > DEFAULT_MAX_N:
        raise ResourceLimitError(
            f"model size {m} + {n} exceeds limit {DEFAULT_MAX_N}")
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
