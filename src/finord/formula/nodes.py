"""AST for the two-sorted surface language over ordered set structures.

Terms are set variables (uppercase initial), atom variables (lowercase
initial), the empty element ``bot``, and the sugar constants ``min``/``max``.
Formulas combine the relations =, sub (inclusion), << (some atom of the left
strictly precedes some atom of the right), at(.) (atomhood), and membership
sugar X(x), under the usual connectives and the four quantifier kinds.

Each shape is one frozen dataclass base, and its concrete classes declare
only class attributes, so they share the base's constructor, ``==``,
``hash`` and ``repr``:

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar

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
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Relation(Formula):
    left: Term
    right: Term


class Eq(Relation):
    pass


class Subset(Relation):
    pass


class Exle(Relation):
    """Some atom of ``left`` lies strictly before some atom of ``right``."""


@dataclass(frozen=True)
class At(Formula):
    arg: Term


@dataclass(frozen=True)
class Mem(Formula):
    """X(x): the atom denoted by ``atom`` belongs to the set ``container``."""
    atom: Term
    container: Term

    def __post_init__(self) -> None:
        if not isinstance(self.atom, Term) or self.atom.set_sorted:
            raise ValueError(f"membership needs an atom-sorted element, got {self.atom}")
        if not isinstance(self.container, Term) or not self.container.set_sorted:
            raise ValueError(f"membership needs a set-sorted container, got {self.container}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Binder(Formula):
    var: str
    body: Formula
    exists: ClassVar[bool]
    over_sets: ClassVar[bool]

    def __post_init__(self) -> None:
        _check_name(self, self.var, self.over_sets)


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
    if isinstance(f, Binder):
        return free_vars(f.body) - {f.var}
    names: set[str] = set()
    for t in terms_of(f):
        if isinstance(t, Variable):
            names.add(t.name)
    for g in subformulas(f):
        names |= free_vars(g)
    return frozenset(names)


def free_set_vars(f: Formula) -> frozenset[str]:
    return frozenset(n for n in free_vars(f) if _name_sort(n))


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def all_identifiers(f: Formula) -> frozenset[str]:
    """Every variable name occurring anywhere, binders included."""
    names: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Binder):
            names.add(g.var)
        for t in terms_of(g):
            if isinstance(t, Variable):
                names.add(t.name)
        for h in subformulas(g):
            walk(h)

    walk(f)
    return frozenset(names)


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


# Per node of a formula, keyed by id: its free variables and its nesting of
# set binders, of all binders, and of connectives and binders.
Summaries = dict[int, tuple[frozenset[str], int, int, int]]


def summarize(f: Formula) -> Summaries:
    """Summarize every node of f, children first, in one pass without
    recursion, so that a formula of any depth can be inspected."""
    order, stack = [], [f]
    while stack:
        order.append(g := stack.pop())
        if isinstance(g, Binary):
            stack += (g.left, g.right)
        elif isinstance(g, (Not, Binder)):
            stack.append(g.body)
    out: Summaries = {}
    for g in reversed(order):
        # conditional expressions rather than max(): this runs on every
        # evaluate call, and small sentences are most of them
        if isinstance(g, Binary):
            lf, ls, lb, ld = out[id(g.left)]
            rf, rs, rb, rd = out[id(g.right)]
            out[id(g)] = (lf | rf, ls if ls > rs else rs,
                          lb if lb > rb else rb, (ld if ld > rd else rd) + 1)
        elif isinstance(g, (Not, Binder)):
            free, sets, binders, depth = out[id(g.body)]
            if isinstance(g, Binder):
                free, sets, binders = (free - {g.var}, sets + g.over_sets,
                                       binders + 1)
            out[id(g)] = (free, sets, binders, depth + 1)
        else:
            out[id(g)] = (frozenset([t.name for t in terms_of(g)
                                     if isinstance(t, Variable)]), 0, 0, 0)
    return out


def quantifier_depths(f: Formula) -> tuple[int, int]:
    """(max nesting of set binders, max nesting of atom binders)."""
    s = a = 0
    for g in subformulas(f):
        gs, ga = quantifier_depths(g)
        s, a = max(s, gs), max(a, ga)
    if isinstance(f, Binder):
        if f.over_sets:
            s += 1
        else:
            a += 1
    return s, a

