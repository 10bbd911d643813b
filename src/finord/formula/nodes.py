"""AST for the two-sorted surface language over ordered set structures.

Terms are set variables (uppercase initial), atom variables (lowercase
initial), the empty element ``bot``, and the sugar constants ``min``/``max``.
Formulas combine the relations =, sub (inclusion), << (some atom of the left
strictly precedes some atom of the right), at(.) (atomhood), and membership
sugar X(x), under the usual connectives and the four quantifier kinds.

Variable sort is determined by the casing of the first character, and the
constructors enforce it, so binding is by bare name without ambiguity.
Membership also checks the sorts of its arguments when it is built: an
atom-sorted element and a set-sorted container.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_ident(name: str) -> None:
    if not name or not (name[0].isalpha()) or not name.replace("_", "").isalnum():
        raise ValueError(f"bad identifier: {name!r}")


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class SetVar(Term):
    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name)
        if not self.name[0].isupper():
            raise ValueError(f"set variable must start uppercase: {self.name!r}")


@dataclass(frozen=True)
class AtomVar(Term):
    name: str

    def __post_init__(self) -> None:
        _check_ident(self.name)
        if not self.name[0].islower():
            raise ValueError(f"atom variable must start lowercase: {self.name!r}")


@dataclass(frozen=True)
class Bot(Term):
    pass


@dataclass(frozen=True)
class MinAtom(Term):
    pass


@dataclass(frozen=True)
class MaxAtom(Term):
    pass


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
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Subset(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Exle(Formula):
    """Some atom of ``left`` lies strictly before some atom of ``right``."""
    left: Term
    right: Term


@dataclass(frozen=True)
class At(Formula):
    arg: Term


@dataclass(frozen=True)
class Mem(Formula):
    """X(x): the atom denoted by ``atom`` belongs to the set ``container``."""
    atom: Term
    container: Term

    def __post_init__(self) -> None:
        if not isinstance(self.atom, (AtomVar, MinAtom, MaxAtom)):
            raise ValueError(f"membership needs an atom-sorted element: {self}")
        if not isinstance(self.container, (SetVar, Bot)):
            raise ValueError(f"membership needs a set-sorted container: {self}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ExistsSet(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var)
        if not self.var[0].isupper():
            raise ValueError(f"ex2 binds an uppercase name: {self.var!r}")


@dataclass(frozen=True)
class ForallSet(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var)
        if not self.var[0].isupper():
            raise ValueError(f"all2 binds an uppercase name: {self.var!r}")


@dataclass(frozen=True)
class ExistsAtom(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var)
        if not self.var[0].islower():
            raise ValueError(f"ex1 binds a lowercase name: {self.var!r}")


@dataclass(frozen=True)
class ForallAtom(Formula):
    var: str
    body: Formula

    def __post_init__(self) -> None:
        _check_ident(self.var)
        if not self.var[0].islower():
            raise ValueError(f"all1 binds a lowercase name: {self.var!r}")


_ATOMIC = (Eq, Subset, Exle)
_BINARY = (And, Or, Implies, Iff)
_QUANT = (ExistsSet, ForallSet, ExistsAtom, ForallAtom)


def terms_of(f: Formula) -> tuple[Term, ...]:
    if isinstance(f, _ATOMIC):
        return (f.left, f.right)
    if isinstance(f, At):
        return (f.arg,)
    if isinstance(f, Mem):
        return (f.atom, f.container)
    return ()


def subformulas(f: Formula) -> tuple[Formula, ...]:
    """Immediate children."""
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, _QUANT):
        return (f.body,)
    return ()


def rebuild(f: Formula, children: tuple[Formula, ...]) -> Formula:
    if isinstance(f, Not):
        return Not(children[0])
    if isinstance(f, _BINARY):
        return type(f)(children[0], children[1])
    if isinstance(f, _QUANT):
        return type(f)(f.var, children[0])
    return f


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, _QUANT):
        return free_vars(f.body) - {f.var}
    names: set[str] = set()
    for t in terms_of(f):
        if isinstance(t, (SetVar, AtomVar)):
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
        if isinstance(g, _QUANT):
            names.add(g.var)
        for t in terms_of(g):
            if isinstance(t, (SetVar, AtomVar)):
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
    if isinstance(f, (ExistsSet, ForallSet)):
        s += 1
    if isinstance(f, (ExistsAtom, ForallAtom)):
        a += 1
    return s, a

