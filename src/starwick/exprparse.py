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

A token is a ``(kind, text, position)`` tuple: ``kind`` is ``"int"``,
``"ident"``, the punctuation character itself, or ``"end"`` for the end
of input, whose text is empty.  ``position`` is the offset of the token's
first character, and of the end of input for ``"end"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .algebra import CoeffElement, Poly, PropagatorSymbol


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# Identifiers name variables, ``hbar`` and propagator families.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Each match is the blanks before one token and the token.  ``bad`` takes
# any character no other group does, which ``finditer`` would skip silently.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<ident>{_IDENT_RE.pattern})|(?P<punct>[-+*^()\[\];,/])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``, last first, so the next one is at the end."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        word, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos)
        tokens.append((word if kind == "punct" else kind, word, pos))
    tokens.append(("end", "", len(text)))
    tokens.reverse()
    return tokens


_VAR_RE = re.compile(r"^x([1-9]\d*)$")


def _int(text: str, pos: int) -> int:
    """The value of the integer literal ``text`` at ``pos``.  Python will not
    convert a literal longer than its digit limit (4,300 by default), and
    that is a ``ParseError`` here."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None


# The deepest parenthesis nesting the parser takes.  Each level costs four
# Python frames of the recursive descent, so a deeper input would end in a
# ``RecursionError`` instead of a ``ParseError``.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, dim: int, symmetric_families: Iterable[str]) -> None:
        self.tokens = _tokenize(text)
        self.depth = 0
        self.dim = dim
        self.symmetric = frozenset(symmetric_families)

    def take(self, *kinds: str) -> tuple[str, str, int] | None:
        """Consume and return the next token if its kind is one of ``kinds``."""
        if self.tokens[-1][0] in kinds:
            return self.tokens.pop()
        return None

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take(kind)
        if tok is None:
            _, text, pos = self.tokens[-1]
            raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", pos)
        return tok

    def parse(self) -> Poly:
        value = self.expr()
        if not self.take("end"):
            _, text, pos = self.tokens[-1]
            raise ParseError(f"unexpected {text!r}", pos)
        return value

    def expr(self) -> Poly:
        value = -self.term() if self.take("-") else self.term()
        while op := self.take("+", "-"):
            rhs = self.term()
            value = value + rhs if op[0] == "+" else value - rhs
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.take("*"):
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        value = self.atom()
        if self.take("^"):
            exponent = self.take("int")
            if exponent is None:
                raise ParseError("exponent must be a non-negative integer literal",
                                 self.tokens[-1][2])
            value = value ** _int(*exponent[1:])
        return value

    def atom(self) -> Poly:
        if tok := self.take("int"):
            num = _int(*tok[1:])
            if self.take("/"):
                _, den, pos = self.expect("int")
                if (den := _int(den, pos)) == 0:
                    raise ParseError("zero denominator", pos)
                return Poly.constant(Fraction(num, den), self.dim)
            return Poly.constant(num, self.dim)
        if tok := self.take("("):
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", tok[2])
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        if tok := self.take("ident"):
            return self.name(tok)
        _, text, pos = self.tokens[-1]
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)

    def name(self, tok: tuple[str, str, int]) -> Poly:
        """An identifier already taken: ``hbar``, a symbol ``K[...]`` or a variable."""
        _, text, pos = tok
        if text == "hbar":
            return Poly.constant(CoeffElement.hbar(), self.dim)
        if text == "K" and self.take("["):
            family = self.expect("ident")[1]
            self.expect(";")
            row = _int(*self.expect("int")[1:])
            self.expect(",")
            col = _int(*self.expect("int")[1:])
            self.expect("]")
            if not (1 <= row <= self.dim and 1 <= col <= self.dim):
                raise ParseError(f"symbol indices ({row},{col}) exceed dimension {self.dim}", pos)
            if family in self.symmetric:
                row, col = min(row, col), max(row, col)
            sym = PropagatorSymbol(family, row, col)
            return Poly.constant(CoeffElement.from_symbol(sym), self.dim)
        var = _VAR_RE.match(text)
        if var:
            index = _int(var.group(1), pos + 1)
            if index > self.dim:
                raise ParseError(f"variable x{index} exceeds dimension {self.dim}", pos)
            return Poly.variable(index, self.dim)
        raise ParseError(f"unknown identifier {text!r}", pos)


def parse(text: str, dim: int, symmetric_families: Iterable[str] = ()) -> Poly:
    """Parse canonical polynomial text into a polynomial of the given dimension."""
    return _Parser(text, dim, symmetric_families).parse()
