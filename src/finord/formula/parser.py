"""Concrete syntax: tokenizer, recursive-descent parser, and printer.

Precedence, loosest first: quantifier body (maximal scope), <->, ->, |, &, ~.
-> and <-> associate to the right, & and | to the left.  Keywords
(true false bot min max at sub ex1 ex2 all1 all2) are reserved and cannot
name variables.  ``format_formula`` emits text that reparses to the same
AST; ``x << y`` between two atom-sorted terms prints in its sugar form
``x < y``, which denotes the same node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nodes import (AtomVar, BOT, Bot, Eq, Exle, ExistsAtom, ExistsSet, FALSE,
                    FalseF, ForallAtom, ForallSet, Formula, And, At, Iff,
                    Implies, MAX, MIN, MaxAtom, Mem, MinAtom, Not, Or, SetVar,
                    Subset, Term, TRUE, TrueF)

KEYWORDS = {"true", "false", "bot", "min", "max", "at", "sub",
            "ex1", "ex2", "all1", "all2"}

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

    def formula(self) -> Formula:
        left = self.implication()
        if self.peek().text == "<->":
            self.next()
            return Iff(left, self.formula())
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().text == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.peek().text == "&":
            self.next()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            return Not(self.negation())
        if t.kind == "kw" and t.text in ("ex2", "all2", "ex1", "all1"):
            return self.quantified()
        return self.atomic()

    def quantified(self) -> Formula:
        t = self.next()
        want_upper = t.text in ("ex2", "all2")
        ctor = {"ex2": ExistsSet, "all2": ForallSet,
                "ex1": ExistsAtom, "all1": ForallAtom}[t.text]
        names: list[str] = []
        while self.peek().kind == "name":
            v = self.next()
            if want_upper != v.text[0].isupper():
                sort = "an uppercase set" if want_upper else "a lowercase atom"
                raise ParseError(f"{t.text} binds {sort} variable, got {v.text!r}", v.pos)
            names.append(v.text)
        if not names:
            raise ParseError(f"{t.text} needs at least one variable", self.peek().pos)
        self.expect(".")
        body = self.formula()   # maximal scope
        for name in reversed(names):
            body = ctor(name, body)
        return body

    def atomic(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
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
            container: Term = Bot() if t.text == "bot" else SetVar(t.text)
            self.next()
            self.next()
            v = self.peek()
            if v.kind == "name" and v.text[0].islower():
                elem: Term = AtomVar(v.text)
            elif v.text == "min":
                elem = MIN
            elif v.text == "max":
                elem = MAX
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
        if t.kind == "kw":
            if t.text == "bot":
                self.next()
                return BOT
            if t.text == "min":
                self.next()
                return MIN
            if t.text == "max":
                self.next()
                return MAX
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


_LEVEL_IFF, _LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT = 1, 2, 3, 4, 5


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
        return _wrap(f"~{_fmt(f.body, _LEVEL_NOT)}", _LEVEL_NOT, level)
    if isinstance(f, And):
        return _wrap(f"{_fmt(f.left, _LEVEL_AND)} & {_fmt(f.right, _LEVEL_AND + 1)}",
                     _LEVEL_AND, level)
    if isinstance(f, Or):
        return _wrap(f"{_fmt(f.left, _LEVEL_OR)} | {_fmt(f.right, _LEVEL_OR + 1)}",
                     _LEVEL_OR, level)
    if isinstance(f, Implies):
        return _wrap(f"{_fmt(f.left, _LEVEL_IMP + 1)} -> {_fmt(f.right, _LEVEL_IMP)}",
                     _LEVEL_IMP, level)
    if isinstance(f, Iff):
        return _wrap(f"{_fmt(f.left, _LEVEL_IFF + 1)} <-> {_fmt(f.right, _LEVEL_IFF)}",
                     _LEVEL_IFF, level)
    if isinstance(f, (ExistsSet, ForallSet, ExistsAtom, ForallAtom)):
        kw = {ExistsSet: "ex2", ForallSet: "all2",
              ExistsAtom: "ex1", ForallAtom: "all1"}[type(f)]
        return _wrap(f"{kw} {f.var}. {_fmt(f.body, 0)}", 0, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text


def _fmt_term(t: Term) -> str:
    if isinstance(t, (SetVar, AtomVar)):
        return t.name
    if isinstance(t, Bot):
        return "bot"
    if isinstance(t, MinAtom):
        return "min"
    if isinstance(t, MaxAtom):
        return "max"
    raise TypeError(f"not a term: {t!r}")
