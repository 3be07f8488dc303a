"""Recursive-descent parser for the canonical polynomial text form.

Grammar (``^`` binds tighter than ``*``, which binds tighter than
``+``/``-``; ``-`` also works as a unary prefix):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | 'hbar' | var | symbol | '(' expr ')'

Rationals are ``p`` or ``p/q`` literals, variables are ``x1..xd``, and
symbols are written ``K[family;i,j]``.  Parsing canonical printed output
returns the identical polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import CoeffElement, Poly, PropagatorSymbol


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


# Identifiers name variables, ``hbar`` and propagator families.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    rf"(?P<int>\d+)|(?P<ident>{_IDENT_RE.pattern})|(?P<punct>[-+*^()\[\];,/])"
)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.group("int") is not None:
            out.append(_Token("int", match.group("int"), pos))
        elif match.group("ident") is not None:
            out.append(_Token("ident", match.group("ident"), pos))
        else:
            out.append(_Token(match.group("punct"), match.group("punct"), pos))
        pos = match.end()
    out.append(_Token("end", "", n))
    return out


_VAR_RE = re.compile(r"^x([1-9]\d*)$")

# The deepest parenthesis nesting the parser takes.  Each level costs four
# Python frames of the recursive descent, so a deeper input would end in a
# ``RecursionError`` instead of a ``ParseError``.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, dim: int, symmetric_families: Iterable[str]) -> None:
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.dim = dim
        self.symmetric = frozenset(symmetric_families)

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expr(self) -> Poly:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        value = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", tok.pos)
            self.advance()
            value = value ** int(tok.text)
        return value

    def atom(self) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("int")
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                return Poly.constant(Fraction(num, int(den.text)), self.dim)
            return Poly.constant(num, self.dim)
        if tok.kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", tok.pos)
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        if tok.kind == "ident":
            return self.name()
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    def name(self) -> Poly:
        tok = self.advance()
        if tok.text == "hbar":
            return Poly.constant(CoeffElement.hbar(), self.dim)
        if tok.text == "K" and self.peek().kind == "[":
            return self.symbol(tok)
        var = _VAR_RE.match(tok.text)
        if var:
            index = int(var.group(1))
            if index > self.dim:
                raise ParseError(
                    f"variable x{index} exceeds dimension {self.dim}", tok.pos
                )
            return Poly.variable(index, self.dim)
        raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)

    def symbol(self, opener: _Token) -> Poly:
        self.expect("[")
        family = self.expect("ident").text
        self.expect(";")
        row = int(self.expect("int").text)
        self.expect(",")
        col = int(self.expect("int").text)
        self.expect("]")
        if not (1 <= row <= self.dim and 1 <= col <= self.dim):
            raise ParseError(
                f"symbol indices ({row},{col}) exceed dimension {self.dim}", opener.pos
            )
        if family in self.symmetric:
            row, col = min(row, col), max(row, col)
        sym = PropagatorSymbol(family, row, col)
        return Poly.constant(CoeffElement.from_symbol(sym), self.dim)


def parse(text: str, dim: int, symmetric_families: Iterable[str] = ()) -> Poly:
    """Parse canonical polynomial text into a polynomial of the given dimension."""
    return _Parser(text, dim, symmetric_families).parse()
