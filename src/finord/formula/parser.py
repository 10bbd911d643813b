"""Concrete syntax: tokenizer, precedence-climbing parser, and printer.

Precedence, loosest first: quantifier body (maximal scope), <->, ->, |, &, ~.
The binary connectives with their associativity (-> and <-> to the right,
& and | to the left), the constants, the relations and the quantifiers are
one table each, which the parser and the printer both read.  The name
syntax and the reserved keywords are ``nodes._IDENTIFIER`` and
``nodes._RESERVED``, and a name's case gives its sort.  Membership X(x) is a
term applied to a term; ``Mem`` checks its sorts, and a sort error is a
``ParseError`` at the container.  Nesting more than 150 levels deep
(counting connective operands, negations, quantifier bodies and
parentheses) is a ``ParseError``, not a ``RecursionError``; each link of a
left-associative & or | chain counts too, since it nests the chain before
it one level deeper, and so does each name of a quantifier's list, since it
nests one binder per name.  ``format_formula`` emits text that reparses to
the same AST; ``x << y`` between two atom-sorted terms prints in its sugar
form ``x < y``, which denotes the same node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nodes import (AtomVar, BOT, Eq, Exle, ExistsAtom, ExistsSet, FALSE,
                    ForallAtom, ForallSet, Formula, And, At, Iff, Implies,
                    MAX, MIN, Mem, Not, Or, SetVar, Subset, Term, TRUE,
                    _IDENTIFIER, _MAX_DEPTH, _RESERVED, _name_sort)

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
_CONSTANTS = {str(c): c for c in (BOT, MIN, MAX)}
_TRUTHS = {"true": TRUE, "false": FALSE}
# "<" is sugar for "<<": the printer writes each node's first token, and
# "<" only between two atom variables
_RELATIONS = {"=": Eq, "sub": Subset, "<<": Exle, "<": Exle}

_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<name>{_IDENTIFIER.pattern})
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
        if m.lastgroup != "ws":
            word = m.group()
            kind = "kw" if word in _RESERVED else m.lastgroup
            out.append(_Token(kind, word, i))
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
        if t.text in _QUANTIFIERS:
            return self.quantified()
        return self.atomic()

    def quantified(self) -> Formula:
        t = self.next()
        ctor = _QUANTIFIERS[t.text]
        names: list[str] = []
        while self.peek().kind == "name":
            v = self.next()
            if ctor.over_sets != _name_sort(v.text):
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
        if t.text in _TRUTHS:
            self.next()
            return _TRUTHS[t.text]
        if t.text == "at":
            self.next()
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return At(arg)
        left = self.term()
        op = self.next()
        if op.text == "(":
            elem = self.term()
            self.expect(")")
            try:
                return Mem(elem, left)
            except ValueError as exc:
                raise ParseError(str(exc), t.pos) from None
        if op.text not in _RELATIONS:
            raise ParseError(f"expected a relation, found {op.text!r}", op.pos)
        return _RELATIONS[op.text](left, self.term())

    def term(self) -> Term:
        t = self.next()
        if t.text in _CONSTANTS:
            return _CONSTANTS[t.text]
        if t.kind == "name":
            return SetVar(t.text) if _name_sort(t.text) else AtomVar(t.text)
        raise ParseError(f"expected a term, found {t.text!r}", t.pos)


def parse(text: str) -> Formula:
    p = _Parser(_tokenize(text))
    f = p.formula()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return f


# keyed on node classes: looking a node itself up would hash its subtree
_QUANTIFIER_TEXT = {node: kw for kw, node in _QUANTIFIERS.items()}
_TRUTH_TEXT = {type(c): tok for tok, c in _TRUTHS.items()}
_RELATION_TEXT = {node: tok for tok, node in reversed(_RELATIONS.items())}


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, level: int) -> str:
    kind = type(f)
    if kind in _TRUTH_TEXT:
        return _TRUTH_TEXT[kind]
    if kind in _RELATION_TEXT:
        tok = _RELATION_TEXT[kind]
        if kind is Exle and isinstance(f.left, AtomVar) and isinstance(f.right, AtomVar):
            tok = "<"
        return f"{_fmt_term(f.left)} {tok} {_fmt_term(f.right)}"
    if kind is At:
        return f"at({_fmt_term(f.arg)})"
    if kind is Mem:
        return f"{_fmt_term(f.container)}({_fmt_term(f.atom)})"
    if kind is Not:
        return _wrap(f"~{_fmt(f.body, _NOT_LEVEL)}", _NOT_LEVEL, level)
    if kind in _BY_NODE:
        mine, tok, right = _BY_NODE[kind]
        # the operand on the associative side may hold the same connective
        left_level, right_level = (mine + 1, mine) if right else (mine, mine + 1)
        return _wrap(f"{_fmt(f.left, left_level)} {tok} {_fmt(f.right, right_level)}",
                     mine, level)
    if kind in _QUANTIFIER_TEXT:
        return _wrap(f"{_QUANTIFIER_TEXT[kind]} {f.var}. {_fmt(f.body, 0)}", 0, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, mine: int, context: int) -> str:
    return f"({text})" if mine < context else text


def _fmt_term(t: Term) -> str:
    if isinstance(t, Term):
        return str(t)
    raise TypeError(f"not a term: {t!r}")
