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

Every term class declares ``set_sorted``.  A name's case gives its sort,
uppercase for sets, and the constructors of ``Variable`` and ``Binder``
enforce it, so binding is by bare name without ambiguity.  Membership
checks the sorts of its arguments when it is built: an atom-sorted element
and a set-sorted container.  The engines read these bases and attributes
rather than listing classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


def _check_name(node, name: str, set_sorted: bool) -> None:
    """The one check that a name's case gives its sort."""
    if not name or not (name[0].isalpha()) or not name.replace("_", "").isalnum():
        raise ValueError(f"bad identifier: {name!r}")
    if not (name[0].isupper() if set_sorted else name[0].islower()):
        case = "an uppercase" if set_sorted else "a lowercase"
        raise ValueError(f"{type(node).__name__} takes {case} name: {name!r}")


class Term:
    __slots__ = ()
    set_sorted: ClassVar[bool]


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self) -> None:
        _check_name(self, self.name, self.set_sorted)


class SetVar(Variable):
    set_sorted = True


class AtomVar(Variable):
    set_sorted = False


@dataclass(frozen=True)
class Bot(Term):
    set_sorted = True


@dataclass(frozen=True)
class MinAtom(Term):
    set_sorted = False


@dataclass(frozen=True)
class MaxAtom(Term):
    set_sorted = False


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
            raise ValueError(f"membership needs an atom-sorted element: {self}")
        if not isinstance(self.container, Term) or not self.container.set_sorted:
            raise ValueError(f"membership needs a set-sorted container: {self}")


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
    return frozenset(n for n in free_vars(f) if n[0].isupper())


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

