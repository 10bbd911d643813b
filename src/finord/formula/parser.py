"""Concrete syntax: tokenizer, precedence-climbing parser, and printer.

Precedence, loosest first: quantifier body (maximal scope), <->, ->, |, &, ~.
The binary connectives and their associativity (-> and <-> to the right,
& and | to the left) are one table, ``_INFIX``, which the parser and the
printer both read.  Keywords (true false bot min max at sub ex1 ex2 all1
all2) are reserved and cannot name variables.  Nesting more than 150
levels deep (counting connective operands, negations, quantifier bodies
and parentheses) is a ``ParseError``, not a ``RecursionError``; each link
of a left-associative & or | chain counts too, since it nests the chain
before it one level deeper, and so does each name of a quantifier's list,
since it nests one binder per name.
``format_formula`` emits text that reparses to the same AST; ``x << y``
between two atom-sorted terms prints in its sugar form ``x < y``, which
denotes the same node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nodes import (AtomVar, BOT, Eq, Exle, ExistsAtom, ExistsSet, FALSE,
                    FalseF, ForallAtom, ForallSet, Formula, And, At, Iff,
                    Implies, MAX, MIN, Mem, Not, Or, SetVar, Subset, Term,
                    TRUE, TrueF, Variable)

# Binary connectives, loosest first: (token, node, right-associative).
# Entry i binds at level i + 1; level 0 is a quantifier body or the whole
# input, and _NOT_LEVEL is the operand of ~.
_INFIX = (("<->", Iff, True), ("->", Implies, True),
          ("|", Or, False), ("&", And, False))
_BY_TOKEN = {tok: (i + 1, node, right) for i, (tok, node, right) in enumerate(_INFIX)}
_BY_NODE = {node: (i + 1, tok, right) for i, (tok, node, right) in enumerate(_INFIX)}
_NOT_LEVEL = len(_INFIX) + 1

_QUANTIFIERS = {"ex2": ExistsSet, "all2": ForallSet,
                "ex1": ExistsAtom, "all1": ForallAtom}
_CONSTANTS = {"bot": BOT, "min": MIN, "max": MAX}

KEYWORDS = {"true", "false", "at", "sub", *_QUANTIFIERS, *_CONSTANTS}

# Deep enough for the largest builder output the benchmark parses
# (``build_psi("eq", 40)`` prints 123 levels deep), shallow enough that
# desugaring, compiling and evaluating what parses stays within Python's
# default recursion limit.
_MAX_DEPTH = 150

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><->|->|<<|<|=|&|\||~|\(|\)|\.)
""", re.VERBOSE)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str   # 'name', 'op', 'kw', 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "name":
            word = m.group()
            kind = "kw" if word in KEYWORDS else "name"
            out.append(_Token(kind, word, i))
        elif m.lastgroup == "op":
            out.append(_Token("op", m.group(), i))
        i = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        # the deepest level of what the current ``formula`` call has parsed
        self.deepest = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.pos)
        return self.next()

    def formula(self, level: int = 0) -> Formula:
        """A formula whose binary connectives all bind at ``level`` or
        tighter; the one recursion every nesting of the grammar goes
        through."""
        outer = self.deepest
        self.deepest = self.depth
        self._check_depth()
        self.depth += 1
        f = self.prefix()
        while (op := _BY_TOKEN.get(self.peek().text)) and op[0] >= level:
            mine, node, right = op
            if not right:
                # the chain parsed so far becomes one level deeper
                self.deepest += 1
                self._check_depth()
            self.next()
            f = node(f, self.formula(mine if right else mine + 1))
        self.depth -= 1
        self.deepest = max(outer, self.deepest)
        return f

    def _check_depth(self) -> None:
        if self.deepest > _MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {_MAX_DEPTH} levels",
                             self.peek().pos)

    def prefix(self) -> Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            return Not(self.formula(_NOT_LEVEL))
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "kw" and t.text in _QUANTIFIERS:
            return self.quantified()
        return self.atomic()

    def quantified(self) -> Formula:
        t = self.next()
        ctor = _QUANTIFIERS[t.text]
        names: list[str] = []
        while self.peek().kind == "name":
            v = self.next()
            if ctor.over_sets != v.text[0].isupper():
                sort = "an uppercase set" if ctor.over_sets else "a lowercase atom"
                raise ParseError(f"{t.text} binds {sort} variable, got {v.text!r}", v.pos)
            names.append(v.text)
        if not names:
            raise ParseError(f"{t.text} needs at least one variable", self.peek().pos)
        self.expect(".")
        # each name nests its binder one level deeper
        self.depth += len(names) - 1
        body = self.formula()   # maximal scope
        self.depth -= len(names) - 1
        for name in reversed(names):
            body = ctor(name, body)
        return body

    def atomic(self) -> Formula:
        t = self.peek()
        if t.kind == "kw":
            if t.text == "true":
                self.next()
                return TRUE
            if t.text == "false":
                self.next()
                return FALSE
            if t.text == "at":
                self.next()
                self.expect("(")
                arg = self.term()
                self.expect(")")
                return At(arg)
        # membership X(x) needs two-token lookahead past the container term
        is_container = ((t.kind == "name" and t.text[0].isupper())
                        or (t.kind == "kw" and t.text == "bot"))
        if is_container and self.tokens[self.i + 1].text == "(":
            container: Term = BOT if t.text == "bot" else SetVar(t.text)
            self.next()
            self.next()
            v = self.peek()
            if v.kind == "name" and v.text[0].islower():
                elem: Term = AtomVar(v.text)
            elif v.text in ("min", "max"):
                elem = _CONSTANTS[v.text]
            else:
                raise ParseError(f"membership argument must be atom-sorted, got {v.text!r}", v.pos)
            self.next()
            self.expect(")")
            return Mem(elem, container)
        left = self.term()
        op = self.peek()
        if op.text == "=":
            self.next()
            return Eq(left, self.term())
        if op.text == "sub" and op.kind == "kw":
            self.next()
            return Subset(left, self.term())
        if op.text in ("<<", "<"):
            self.next()
            return Exle(left, self.term())
        raise ParseError(f"expected a relation, found {op.text!r}", op.pos)

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "kw" and t.text in _CONSTANTS:
            self.next()
            return _CONSTANTS[t.text]
        if t.kind == "name":
            self.next()
            return SetVar(t.text) if t.text[0].isupper() else AtomVar(t.text)
        raise ParseError(f"expected a term, found {t.text!r}", t.pos)


def parse(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return f


_QUANTIFIER_TEXT = {node: kw for kw, node in _QUANTIFIERS.items()}
_CONSTANT_TEXT = {term: kw for kw, term in _CONSTANTS.items()}


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, level: int) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Eq):
        return f"{_fmt_term(f.left)} = {_fmt_term(f.right)}"
    if isinstance(f, Subset):
        return f"{_fmt_term(f.left)} sub {_fmt_term(f.right)}"
    if isinstance(f, Exle):
        op = "<" if isinstance(f.left, AtomVar) and isinstance(f.right, AtomVar) else "<<"
        return f"{_fmt_term(f.left)} {op} {_fmt_term(f.right)}"
    if isinstance(f, At):
        return f"at({_fmt_term(f.arg)})"
    if isinstance(f, Mem):
        return f"{_fmt_term(f.container)}({_fmt_term(f.atom)})"
    if isinstance(f, Not):
        return _wrap(f"~{_fmt(f.body, _NOT_LEVEL)}", _NOT_LEVEL, level)
    if type(f) in _BY_NODE:
        mine, tok, right = _BY_NODE[type(f)]
        # the operand on the associative side may hold the same connective
        left_level, right_level = (mine + 1, mine) if right else (mine, mine + 1)
        return _wrap(f"{_fmt(f.left, left_level)} {tok} {_fmt(f.right, right_level)}",
                     mine, level)
    if type(f) in _QUANTIFIER_TEXT:
        return _wrap(f"{_QUANTIFIER_TEXT[type(f)]} {f.var}. {_fmt(f.body, 0)}", 0, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text


def _fmt_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if t in _CONSTANT_TEXT:
        return _CONSTANT_TEXT[t]
    raise TypeError(f"not a term: {t!r}")
