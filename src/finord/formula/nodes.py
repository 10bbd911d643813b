"""AST for the two-sorted surface language over ordered set structures.

Terms are set variables (uppercase initial), atom variables (lowercase
initial), the empty element ``bot``, and the sugar constants ``min``/``max``.
Formulas combine the relations =, sub (inclusion), << (some atom of the left
strictly precedes some atom of the right), at(.) (atomhood), and membership
sugar X(x), under the usual connectives and the four quantifier kinds.

Each shape is one frozen dataclass base, and its concrete classes declare
only class attributes, so they share the base's constructor and ``repr``
(and, for terms, ``==`` and ``hash``):

- ``Variable(name)``: ``SetVar`` and ``AtomVar``;
- ``Relation(left, right)``: ``Eq``, ``Subset`` and ``Exle``;
- ``Binary(left, right)``: ``And``, ``Or``, ``Implies`` and ``Iff``;
- ``Binder(var, body)``: ``ExistsSet``, ``ForallSet``, ``ExistsAtom`` and
  ``ForallAtom``, each declaring ``exists`` (existential or universal) and
  ``over_sets`` (ranging over sets or over atoms).

Every term class declares ``set_sorted``, and a term's ``str`` is its
surface text.  A name's case gives its sort, uppercase for sets:
``_name_sort`` states that rule once, and the constructors of ``Variable``
and ``Binder`` enforce it, so binding is by bare name without ambiguity.
A name is an ASCII letter followed by ASCII letters, digits and
underscores, and no keyword: ``_IDENTIFIER`` and ``_RESERVED`` say so once,
for the constructors and the tokenizer alike, so every name a constructor
accepts prints as text that reparses.
Membership checks its sorts when it is built, for code and text alike: an
atom-sorted element and a set-sorted container.  The engines read these
bases and attributes rather than listing classes.

Every formula node stores its hash when built; ``==``, ``repr`` and
``pickle`` walk an explicit stack, so none of these recurses, and ``==``
compares a pair of shared children once, not once per path to them.
``summary`` is the one walk over a whole formula, without recursion: its
free variables, names, leftover sugar and nestings.  ``free_vars``,
``all_identifiers``, ``is_sentence`` and ``sugar.is_desugared`` read it,
and every pass that recurses over a formula reads its depth first,
refusing one nested past ``_MAX_NESTING`` with ``ResourceLimitError``, the
one exception for every exceeded budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = frozenset({"true", "false", "bot", "min", "max", "at", "sub",
                       "ex1", "ex2", "all1", "all2"})


def _name_sort(name: str) -> bool | None:
    """The sort a name's case gives it: True for a set (uppercase initial),
    False for an atom (lowercase initial), None for neither."""
    initial = name[:1]
    return True if initial.isupper() else False if initial.islower() else None


def _check_name(node, name: str, set_sorted: bool) -> None:
    if not _IDENTIFIER.fullmatch(name) or name in _RESERVED:
        raise ValueError(f"bad identifier: {name!r}")
    if _name_sort(name) != set_sorted:
        case = "an uppercase" if set_sorted else "a lowercase"
        raise ValueError(f"{type(node).__name__} takes {case} name: {name!r}")


class Term:
    __slots__ = ()
    set_sorted: ClassVar[bool]
    _text: ClassVar[str]

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self) -> None:
        _check_name(self, self.name, self.set_sorted)

    def __str__(self) -> str:
        return self.name


class SetVar(Variable):
    set_sorted = True


class AtomVar(Variable):
    set_sorted = False


@dataclass(frozen=True)
class Bot(Term):
    set_sorted, _text = True, "bot"


@dataclass(frozen=True)
class MinAtom(Term):
    set_sorted, _text = False, "min"


@dataclass(frozen=True)
class MaxAtom(Term):
    set_sorted, _text = False, "max"


BOT = Bot()
MIN = MinAtom()
MAX = MaxAtom()


class Formula:
    """A node stores its hash when it is built, from its children's stored
    hashes, and ``==``, ``repr`` and ``pickle`` walk nodes on one explicit
    stack, so none of them recurses however deep the formula."""
    __slots__ = ()
    __match_args__: ClassVar[tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((type(self), *self._fields())))

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Formula):
            return NotImplemented
        # a pair of shared children is compared once, not once per path
        stack, seen = [(self, other)], set()
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._fields(), b._fields()):
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        # the dataclass text, from one stack of nodes still to write and
        # text already made
        out, stack = [], [self]
        while stack:
            g = stack.pop()
            if isinstance(g, str):
                out.append(g)
                continue
            parts = [f"{type(g).__qualname__}("]
            for i, name in enumerate(g.__match_args__):
                value = getattr(g, name)
                parts += [f"{', ' * (i > 0)}{name}=",
                          value if isinstance(value, Formula) else repr(value)]
            stack += reversed(parts + [")"])
        return "".join(out)

    def __reduce__(self):
        # (class, fields) from the leaves up, a child given by its index,
        # so that pickle does not recurse and writes a shared child once
        index, nodes, stack = {}, [], [self]
        while stack:
            g = stack[-1]
            kids = [x for x in g._fields()
                    if isinstance(x, Formula) and id(x) not in index]
            if kids:
                stack += kids
            elif id(stack.pop()) not in index:
                index[id(g)] = len(nodes)
                nodes.append((type(g), tuple(
                    index[id(x)] if isinstance(x, Formula) else x
                    for x in g._fields())))
        return _unflatten, (nodes,)


def _unflatten(nodes: list) -> Formula:
    """Rebuild what ``Formula.__reduce__`` flattened, through constructors
    (a stored hash is per process); other fields are terms or names."""
    built = []
    for cls, fields in nodes:
        built.append(cls(*(built[x] if type(x) is int else x for x in fields)))
    return built[-1]


@dataclass(frozen=True, eq=False, repr=False)
class TrueF(Formula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True, eq=False, repr=False)
class Relation(Formula):
    left: Term
    right: Term


class Eq(Relation):
    pass


class Subset(Relation):
    pass


class Exle(Relation):
    """Some atom of ``left`` lies strictly before some atom of ``right``."""


@dataclass(frozen=True, eq=False, repr=False)
class At(Formula):
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Mem(Formula):
    """X(x): the atom denoted by ``atom`` belongs to the set ``container``."""
    atom: Term
    container: Term

    def __post_init__(self) -> None:
        if not isinstance(self.atom, Term) or self.atom.set_sorted:
            raise ValueError(f"membership needs an atom-sorted element, got {self.atom}")
        if not isinstance(self.container, Term) or not self.container.set_sorted:
            raise ValueError(f"membership needs a set-sorted container, got {self.container}")
        super().__post_init__()


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Binary(Formula):
    left: Formula
    right: Formula


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Iff(Binary):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Binder(Formula):
    var: str
    body: Formula
    exists: ClassVar[bool]
    over_sets: ClassVar[bool]

    def __post_init__(self) -> None:
        _check_name(self, self.var, self.over_sets)
        super().__post_init__()


class ExistsSet(Binder):
    exists, over_sets = True, True


class ForallSet(Binder):
    exists, over_sets = False, True


class ExistsAtom(Binder):
    exists, over_sets = True, False


class ForallAtom(Binder):
    exists, over_sets = False, False


def terms_of(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, Relation):
        return (f.left, f.right)
    if isinstance(f, At):
        return (f.arg,)
    if isinstance(f, Mem):
        return (f.atom, f.container)
    return ()


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Immediate children."""
    if isinstance(f, (Not, Binder)):
        return (f.body,)
    if isinstance(f, Binary):
        return (f.left, f.right)
    return ()


def rebuild(f: Formula, children: tuple[Formula, ...]) -> Formula:
    if isinstance(f, Binder):
        return type(f)(f.var, children[0])
    if isinstance(f, (Not, Binary)):
        return type(f)(*children)
    return f


def free_vars(f: Formula) -> frozenset[str]:
    return summary(f).free


def free_set_vars(f: Formula) -> frozenset[str]:
    return frozenset(n for n in free_vars(f) if _name_sort(n))


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def all_identifiers(f: Formula) -> frozenset[str]:
    """Every variable name occurring anywhere, binders included."""
    return summary(f).names


def fresh_names(used):
    """Deterministic generator of uppercase names X0, X1, ... outside
    ``used``; the one source of fresh names in the formula layer."""
    used = set(used)
    i = 0
    while True:
        cand = f"X{i}"
        i += 1
        if cand not in used:
            yield cand


# The nesting every pass that recurses over a formula holds, within
# Python's default recursion limit even when called 200 frames deep.  The
# parser's limit is derived from it, so that what ``desugar`` makes of
# parsed text, two levels per atom binder and eight for the min and max
# witnesses of the innermost atomic formula, fits: ``ex1 x0 ... x149.
# min << max`` desugars exactly this deep.
_MAX_NESTING = 308


class ResourceLimitError(RuntimeError):
    """An evaluation or construction exceeded its configured budget."""


def _check_nesting(what: str, nesting: int, limit: int = _MAX_NESTING) -> None:
    """Refuse a nesting past its limit, by default ``_MAX_NESTING``."""
    if nesting > limit:
        raise ResourceLimitError(
            f"{what} nesting {nesting} exceeds limit {limit}")


class Summary(NamedTuple):
    """What one walk finds in a formula: its free variables, every variable
    name (binders included), whether sugar occurs (membership, an atom
    binder, min or max), and the deepest nesting of set binders, of all
    binders, and of connectives and binders together."""
    free: frozenset[str]
    names: frozenset[str]
    sugared: bool
    set_nesting: int
    binder_nesting: int
    depth: int


def summary(f: Formula) -> Summary:
    """Summarize f in one walk without recursion, so that a formula of any
    depth can be inspected.  Each node is visited with the nestings on its
    path, which the leaves settle.  ``bound`` holds the names bound above
    the node: a binder that binds a new name pushes a marker (None, name)
    under its body, and popping it releases the name, so the walk keeps
    one set, not one per pending node."""
    free, names, bound, sugared = set(), set(), set(), False
    sets = binders = depth = 0
    stack = [(f, 0, 0, 0)]
    while stack:
        g, s, b, d = stack.pop()
        if isinstance(g, Binary):
            stack += ((g.left, s, b, d + 1), (g.right, s, b, d + 1))
        elif isinstance(g, Binder):
            var = g.var
            names.add(var)
            sugared = sugared or not g.over_sets
            if var not in bound:
                bound.add(var)
                stack.append((None, var, 0, 0))
            stack.append((g.body, s + g.over_sets, b + 1, d + 1))
        elif isinstance(g, Not):
            stack.append((g.body, s, b, d + 1))
        elif g is None:
            bound.remove(s)
        else:
            # conditional expressions rather than max(): this runs on every
            # evaluate call, and small sentences are most of them
            sets, binders = (sets if sets > s else s,
                             binders if binders > b else b)
            depth = depth if depth > d else d
            sugared = sugared or isinstance(g, Mem)
            for t in terms_of(g):
                if isinstance(t, Variable):
                    names.add(t.name)
                    if t.name not in bound:
                        free.add(t.name)
                elif isinstance(t, (MinAtom, MaxAtom)):
                    sugared = True
    return Summary(frozenset(free), frozenset(names), sugared, sets,
                   binders, depth)
