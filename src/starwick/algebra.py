"""Exact coefficient algebra and block-tagged multivariate polynomials.

Values come in three layers:

* :class:`PropagatorSymbol` -- one abstract propagator entry ``K[f;i,j]``.
* :class:`CoeffElement` -- an exact rational combination of monomials in
  propagator symbols and powers of the formal deformation parameter
  ``hbar``.  This is the commutative coefficient algebra everything else
  is linear over; derivatives treat its elements as constants.
* :class:`Poly` -- a multivariate polynomial in ``x1..xd`` over
  :class:`CoeffElement`.  Each variable carries a block tag so that
  tensor factors ``f (x) g (x) ...`` share one flat term map; blocks are
  collapsed explicitly with :meth:`Poly.merge_blocks`.

All values are immutable after construction and safe to share between
threads.  Terms are kept in canonical form: no zero coefficient is ever
stored and monomial keys are kept sorted.  A coefficient is stored as an
``int`` when it is integral and as a reduced ``Fraction`` otherwise
(:func:`_rational`), so exact integer inputs never pay for ``Fraction``
arithmetic.  Coefficients compare by value (``3 == Fraction(3)``, with
equal hashes), so two elements are equal exactly when their term maps
hold the same monomials with equal values.

Products are summed in place by :class:`_TermSum`, a two-level term map
``vm -> {mono: q}`` that multiplies each distinct pair of coefficient
monomials once and drops zero sums once, at the end.

Printed text lists terms in one canonical order, read off plain keys:
variable monomials in graded lex order (higher total degree first, then
the earlier variable with the higher power), coefficient monomials by
``(degree, hbar, symbols)`` ascending, and symbols by ``(family, row,
col)``.  A symbol is that tuple, so it also compares and hashes equal to
the plain tuple with the same three fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

RationalLike = Fraction | int


def _rational(q: RationalLike) -> RationalLike:
    """The scalar rule: ``q`` as an ``int`` when integral, else as a reduced ``Fraction``."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _nonzero(terms: dict, den: int = 1) -> dict:
    """The term map ``terms`` divided by ``den``, zeros dropped, values by the scalar rule."""
    if den == 1:
        return {m: q if type(q) is int else _rational(q) for m, q in terms.items() if q}
    return {m: _rational(Fraction(q, den)) for m, q in terms.items() if q}


class PropagatorSymbol(tuple):
    """Abstract propagator entry ``K[family;row,col]``: the tuple ``(family, row, col)``."""

    __slots__ = ()

    def __new__(cls, family: str, row: int, col: int) -> "PropagatorSymbol":
        if row < 1 or col < 1:
            raise ValueError(f"propagator indices are 1-based, got ({row}, {col})")
        return tuple.__new__(cls, (family, row, col))

    family = property(itemgetter(0))
    row = property(itemgetter(1))
    col = property(itemgetter(2))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PropagatorSymbol(family={self[0]!r}, row={self[1]!r}, col={self[2]!r})"

    def text(self) -> str:
        return f"K[{self[0]};{self[1]},{self[2]}]"


@dataclass(frozen=True)
class CoeffMonomial:
    """One monomial ``hbar^h * prod K^e`` with sorted positive exponents."""

    hbar: int = 0
    symbols: tuple[tuple[PropagatorSymbol, int], ...] = ()

    def __post_init__(self) -> None:
        if self.hbar < 0:
            raise ValueError("hbar exponent must be non-negative")
        prev: PropagatorSymbol | None = None
        for sym, exp in self.symbols:
            if exp <= 0:
                raise ValueError("symbol exponents must be positive")
            if prev is not None and not prev < sym:
                raise ValueError("symbol entries must be strictly sorted")
            prev = sym
        # Monomials key every coefficient dict, so the hash is computed once;
        # __reduce__ makes unpickling recompute it under the new hash seed.
        object.__setattr__(self, "_hash", hash((self.hbar, self.symbols)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CoeffMonomial, (self.hbar, self.symbols))

    @classmethod
    def _raw(cls, hbar: int, symbols: tuple) -> "CoeffMonomial":
        """A monomial valid by construction, built without the checks."""
        out = object.__new__(cls)
        out.__dict__.update(hbar=hbar, symbols=symbols, _hash=hash((hbar, symbols)))
        return out

    @staticmethod
    def make(
        hbar: int = 0, symbols: Mapping[PropagatorSymbol, int] | None = None
    ) -> "CoeffMonomial":
        items = tuple(sorted((s, e) for s, e in (symbols or {}).items() if e != 0))
        return CoeffMonomial(hbar, items)

    def degree(self) -> int:
        return self.hbar + sum(e for _, e in self.symbols)

    def __mul__(self, other: "CoeffMonomial") -> "CoeffMonomial":
        hbar = self.hbar + other.hbar
        if not other.symbols:
            return CoeffMonomial._raw(hbar, self.symbols) if other.hbar else self
        if not self.symbols:
            return CoeffMonomial._raw(hbar, other.symbols) if self.hbar else other
        merged = dict(self.symbols)
        for sym, exp in other.symbols:
            merged[sym] = merged.get(sym, 0) + exp
        return CoeffMonomial._raw(hbar, tuple(sorted(merged.items())))

    def sort_key(self) -> tuple:
        return (self.degree(), self.hbar, self.symbols)

    def text_parts(self) -> list[str]:
        parts: list[str] = []
        if self.hbar == 1:
            parts.append("hbar")
        elif self.hbar > 1:
            parts.append(f"hbar^{self.hbar}")
        for sym, exp in self.symbols:
            parts.append(sym.text() if exp == 1 else f"{sym.text()}^{exp}")
        return parts


_UNIT_MONO = CoeffMonomial()


def _as_element(value: "CoeffElement | RationalLike") -> "CoeffElement":
    if isinstance(value, CoeffElement):
        return value
    if isinstance(value, (int, Fraction)):
        return CoeffElement.from_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into the coefficient algebra")


class CoeffElement:
    """Element of the coefficient algebra: finite map monomial -> rational."""

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[CoeffMonomial, RationalLike] | None = None
    ) -> None:
        clean: dict[CoeffMonomial, RationalLike] = {}
        for mono, q in (terms or {}).items():
            q = _rational(q)
            if q:
                clean[mono] = q
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[CoeffMonomial, RationalLike]) -> "CoeffElement":
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> "CoeffElement":
        return cls._raw({})

    @classmethod
    def one(cls) -> "CoeffElement":
        return cls._raw({_UNIT_MONO: 1})

    @classmethod
    def from_rational(cls, q: RationalLike) -> "CoeffElement":
        q = _rational(q)
        return cls._raw({_UNIT_MONO: q} if q else {})

    @classmethod
    def from_symbol(cls, symbol: PropagatorSymbol, exp: int = 1) -> "CoeffElement":
        return cls._raw({CoeffMonomial.make(0, {symbol: exp}): 1})

    @classmethod
    def hbar(cls, power: int = 1) -> "CoeffElement":
        return cls._raw({CoeffMonomial(hbar=power): 1})

    def items(self) -> Iterator[tuple[CoeffMonomial, RationalLike]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CoeffElement.from_rational(other)
        if not isinstance(other, CoeffElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "CoeffElement":
        return CoeffElement._raw({m: -q for m, q in self._terms.items()})

    def __add__(self, other: "CoeffElement | RationalLike") -> "CoeffElement":
        out = dict(self._terms)
        for m, q in _as_element(other)._terms.items():
            out[m] = out.get(m, 0) + q
        return CoeffElement._raw(_nonzero(out))

    __radd__ = __add__

    def __sub__(self, other: "CoeffElement | RationalLike") -> "CoeffElement":
        return self + (-_as_element(other))

    def __rsub__(self, other: "CoeffElement | RationalLike") -> "CoeffElement":
        return _as_element(other) + (-self)

    def __mul__(self, other: "CoeffElement | RationalLike") -> "CoeffElement":
        if isinstance(other, (int, Fraction)):
            if other == 1:
                return self
            q = _rational(other)
            return CoeffElement._raw(_nonzero({m: c * q for m, c in self._terms.items()}))
        out: dict[CoeffMonomial, RationalLike] = {}
        _add_products(out, self, _as_element(other), {})
        return CoeffElement._raw(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "CoeffElement":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = CoeffElement.one()
        for _ in range(exp):
            out = out * self
        return out

    def truncate_hbar(self, order: int) -> "CoeffElement":
        return CoeffElement._raw(
            {m: q for m, q in self._terms.items() if m.hbar <= order}
        )

    def hbar_part(self, power: int) -> "CoeffElement":
        """The monomials at an exact hbar power, with that power divided out."""
        out: dict[CoeffMonomial, RationalLike] = {}
        for mono, q in self._terms.items():
            if mono.hbar == power:
                out[CoeffMonomial(0, mono.symbols)] = q
        return CoeffElement._raw(out)

    def symbols(self) -> set[PropagatorSymbol]:
        return {sym for mono in self._terms for sym, _ in mono.symbols}

    def substitute(
        self,
        values: Mapping[PropagatorSymbol, RationalLike],
        hbar: RationalLike,
    ) -> Fraction:
        """Exact rational evaluation; every symbol present must be assigned."""

        def lookup(sym: PropagatorSymbol) -> Fraction:
            if sym not in values:
                raise ValueError(f"no value assigned to symbol {sym.text()}")
            return Fraction(values[sym])

        return Fraction(self.evaluate(lookup, Fraction(hbar)))

    def evaluate(self, symbol_value: Callable[[PropagatorSymbol], object], hbar_value):
        """Numeric evaluation generic over the scalar type (Fraction or float)."""
        total = 0
        for mono, q in self._terms.items():
            v = q * hbar_value**mono.hbar if mono.hbar else q
            for sym, exp in mono.symbols:
                v = v * symbol_value(sym) ** exp
            total = total + v
        return total

    def sorted_terms(self) -> list[tuple[CoeffMonomial, RationalLike]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        return _render_terms((q, "*".join(m.text_parts())) for m, q in self.sorted_terms())

    def __repr__(self) -> str:
        return f"CoeffElement({self})"


def _add_products(out: dict, left: CoeffElement, right: CoeffElement, products: dict) -> None:
    """Add ``left * right`` into the coefficient term map ``out`` in place.

    ``products`` memoizes monomial products as ``products[m2][m1] = m1 * m2``;
    zero sums are left for :func:`_nonzero`.
    """
    for m2, q2 in right._terms.items():
        row = products.get(m2)
        if row is None:
            row = products[m2] = {}
        for m1, q1 in left._terms.items():
            m = row.get(m1)
            if m is None:
                m = row[m1] = m1 * m2
            out[m] = out.get(m, 0) + q1 * q2


def _render_terms(entries: Iterable[tuple[RationalLike, str]]) -> str:
    """Canonical text of ``(coefficient, factors)`` terms; empty factors mean the unit."""
    chunks: list[str] = []
    for q, body in entries:
        num, den = q.numerator, q.denominator
        mag = abs(num)
        if den != 1:
            body = f"{mag}/{den}*{body}" if body else f"{mag}/{den}"
        elif mag != 1 or not body:
            body = f"{mag}*{body}" if body else str(mag)
        if chunks:
            chunks.append(("- " if num < 0 else "+ ") + body)
        else:
            chunks.append(("-" if num < 0 else "") + body)
    return " ".join(chunks) if chunks else "0"


@dataclass(frozen=True)
class VarMonomial:
    """Product of block-tagged variables ``(block, index) -> exponent``."""

    items: tuple[tuple[tuple[int, int], int], ...] = ()

    def __post_init__(self) -> None:
        prev: tuple[int, int] | None = None
        for (block, index), exp in self.items:
            if exp <= 0:
                raise ValueError("variable exponents must be positive")
            if block < 0 or index < 1:
                raise ValueError(f"bad variable key ({block}, {index})")
            if prev is not None and not prev < (block, index):
                raise ValueError("variable entries must be strictly sorted")
            prev = (block, index)

    @classmethod
    def _raw(cls, items: tuple) -> "VarMonomial":
        """A monomial valid by construction, built without the checks."""
        out = object.__new__(cls)
        out.__dict__["items"] = items
        return out

    @staticmethod
    def make(exps: Mapping[tuple[int, int], int]) -> "VarMonomial":
        return VarMonomial(tuple(sorted((k, e) for k, e in exps.items() if e != 0)))

    def degree(self) -> int:
        return sum(e for _, e in self.items)

    def blocks(self) -> set[int]:
        return {b for (b, _), _ in self.items}

    def merged(self) -> "VarMonomial":
        """The monomial with every block collapsed onto block 0."""
        exps: dict[int, int] = {}
        for (_, index), e in self.items:
            exps[index] = exps.get(index, 0) + e
        return VarMonomial._raw(tuple(((0, i), e) for i, e in sorted(exps.items())))

    def __mul__(self, other: "VarMonomial") -> "VarMonomial":
        merged = dict(self.items)
        for key, exp in other.items:
            merged[key] = merged.get(key, 0) + exp
        # Sums of positive exponents on valid keys: valid once sorted.
        return VarMonomial._raw(tuple(sorted(merged.items())))

    def text_parts(self) -> list[str]:
        parts = []
        for (block, index), exp in self.items:
            name = f"x{index}" if block == 0 else f"x{index}@{block}"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return parts


_EMPTY_VM = VarMonomial()


class _TermSum:
    """A polynomial's term map summed in place: ``vm -> {mono: q}``.

    :meth:`add` adds a product of coefficients straight into the inner map
    of its variable monomial, multiplying each distinct pair of coefficient
    monomials once per accumulator.  Zero sums stay until :meth:`poly`
    drops them, once, and applies the scalar rule.
    """

    __slots__ = ("terms", "products")

    def __init__(self) -> None:
        self.terms: dict[VarMonomial, dict[CoeffMonomial, RationalLike]] = {}
        self.products: dict[CoeffMonomial, dict[CoeffMonomial, CoeffMonomial]] = {}

    def add(self, vm: VarMonomial, left: CoeffElement, right: CoeffElement) -> None:
        """Add the coefficient ``left * right`` at ``vm``."""
        out = self.terms.get(vm)
        if out is None:
            out = self.terms[vm] = {}
        _add_products(out, left, right, self.products)

    def poly(self, dim: int, den: int = 1) -> "Poly":
        """The sum divided by ``den``, with zero coefficients dropped."""
        out = {}
        for vm, terms in self.terms.items():
            terms = _nonzero(terms, den)
            if terms:
                out[vm] = CoeffElement._raw(terms)
        return Poly._raw(dim, out)


class Poly:
    """Polynomial in ``x1..xd`` with coefficients in the coefficient algebra."""

    __slots__ = ("_dim", "_terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[VarMonomial, "CoeffElement | RationalLike"] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        clean: dict[VarMonomial, CoeffElement] = {}
        for vm, ce in (terms or {}).items():
            ce = _as_element(ce)
            if ce.is_zero():
                continue
            for (_, index), _ in vm.items:
                if index > dim:
                    raise ValueError(f"variable index {index} exceeds dimension {dim}")
            clean[vm] = ce
        self._dim = dim
        self._terms = clean

    @classmethod
    def _raw(cls, dim: int, terms: dict[VarMonomial, CoeffElement]) -> "Poly":
        out = cls.__new__(cls)
        out._dim = dim
        out._terms = terms
        return out

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def one(cls, dim: int) -> "Poly":
        return cls(dim, {_EMPTY_VM: CoeffElement.one()})

    @classmethod
    def constant(cls, value: "CoeffElement | RationalLike", dim: int) -> "Poly":
        return cls(dim, {_EMPTY_VM: _as_element(value)})

    @classmethod
    def variable(cls, index: int, dim: int, block: int = 0) -> "Poly":
        if not 1 <= index <= dim:
            raise ValueError(f"variable index {index} out of range 1..{dim}")
        return cls(dim, {VarMonomial.make({(block, index): 1}): CoeffElement.one()})

    @property
    def dim(self) -> int:
        return self._dim

    def items(self) -> Iterator[tuple[VarMonomial, CoeffElement]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dim, frozenset((vm, hash(ce)) for vm, ce in self._terms.items())))

    def blocks(self) -> set[int]:
        out: set[int] = set()
        for vm in self._terms:
            out |= vm.blocks()
        return out

    def total_degree(self) -> int:
        return max((vm.degree() for vm in self._terms), default=0)

    def _check_dim(self, other: "Poly") -> None:
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __neg__(self) -> "Poly":
        return Poly._raw(self._dim, {vm: -ce for vm, ce in self._terms.items()})

    def __add__(self, other: "Poly | CoeffElement | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(_as_element(other), self._dim)
        self._check_dim(other)
        out = dict(self._terms)
        for vm, ce in other._terms.items():
            s = out.get(vm)
            s = ce if s is None else s + ce
            if s:
                out[vm] = s
            else:
                del out[vm]
        return Poly._raw(self._dim, out)

    __radd__ = __add__

    def __sub__(self, other: "Poly | CoeffElement | RationalLike") -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(_as_element(other), self._dim)
        return self + (-other)

    def __rsub__(self, other: "Poly | CoeffElement | RationalLike") -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | CoeffElement | RationalLike") -> "Poly":
        acc = _TermSum()
        if isinstance(other, Poly):
            self._check_dim(other)
            for vm1, ce1 in self._terms.items():
                for vm2, ce2 in other._terms.items():
                    acc.add(vm1 * vm2, ce1, ce2)
        else:
            other = _as_element(other)
            for vm, ce in self._terms.items():
                acc.add(vm, ce, other)
        return acc.poly(self._dim)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Poly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Poly.one(self._dim)
        for _ in range(exp):
            out = out * self
        return out

    def derivative(self, index: int, block: int = 0) -> "Poly":
        """Partial derivative in one block; coefficients are constants."""
        if not 1 <= index <= self._dim:
            raise ValueError(f"variable index {index} out of range 1..{self._dim}")
        key = (block, index)
        out: dict[VarMonomial, CoeffElement] = {}
        for vm, ce in self._terms.items():
            items = vm.items
            for pos, (k, e) in enumerate(items):
                if k == key:
                    break
            else:
                continue
            # Lowering one exponent keeps the items sorted and maps distinct
            # monomials to distinct ones, so nothing merges or cancels.
            rest = items[pos + 1 :]
            lowered = items[:pos] + (((key, e - 1),) + rest if e > 1 else rest)
            out[VarMonomial._raw(lowered)] = ce if e == 1 else CoeffElement._raw(
                {m: _rational(q * e) for m, q in ce.items()}
            )
        return Poly._raw(self._dim, out)

    def derivative_multi(self, orders: Iterable[int], block: int = 0) -> "Poly":
        """Iterated derivative; ``orders[i]`` is the order in variable ``i+1``."""
        out = self
        for index, count in enumerate(orders, start=1):
            for _ in range(count):
                if out.is_zero():
                    return out
                out = out.derivative(index, block=block)
        return out

    def merge_blocks(self) -> "Poly":
        """Collapse every block onto block 0, identifying equal variable indices."""
        acc, one = _TermSum(), CoeffElement.one()
        for vm, ce in self._terms.items():
            acc.add(vm.merged(), ce, one)
        return acc.poly(self._dim)

    def relabel_blocks(self, mapping: Mapping[int, int]) -> "Poly":
        present = self.blocks()
        renamed = {mapping.get(b, b) for b in present}
        if len(renamed) != len(present):
            raise ValueError("block relabeling collides")
        out = {}
        for vm, ce in self._terms.items():
            exps = {(mapping.get(b, b), i): e for (b, i), e in vm.items}
            out[VarMonomial.make(exps)] = ce
        return Poly._raw(self._dim, out)

    def constant_coeff(self) -> CoeffElement:
        return self._terms.get(_EMPTY_VM, CoeffElement.zero())

    def truncate_hbar(self, order: int) -> "Poly":
        out = {}
        for vm, ce in self._terms.items():
            t = ce.truncate_hbar(order)
            if not t.is_zero():
                out[vm] = t
        return Poly._raw(self._dim, out)

    def hbar_coefficient(self, power: int) -> "Poly":
        """The polynomial coefficient of ``hbar^power``, with hbar divided out."""
        out = {}
        for vm, ce in self._terms.items():
            part = ce.hbar_part(power)
            if not part.is_zero():
                out[vm] = part
        return Poly._raw(self._dim, out)

    def symbols(self) -> set[PropagatorSymbol]:
        out: set[PropagatorSymbol] = set()
        for ce in self._terms.values():
            out |= ce.symbols()
        return out

    def evaluate(
        self,
        var_value: Callable[[int, int], object],
        symbol_value: Callable[[PropagatorSymbol], object],
        hbar_value,
    ):
        """Numeric evaluation; ``var_value(block, index)`` supplies variables."""
        total = 0
        for vm, ce in self._terms.items():
            v = ce.evaluate(symbol_value, hbar_value)
            for (block, index), exp in vm.items:
                v = v * var_value(block, index) ** exp
            total = total + v
        return total

    def sorted_terms(self) -> list[tuple[VarMonomial, CoeffElement]]:
        return sorted(self._terms.items(), key=lambda kv: (
            -kv[0].degree(), [(key, -exp) for key, exp in kv[0].items]))

    def __str__(self) -> str:
        # Each distinct coefficient monomial is ranked and formatted once.
        distinct = {m for ce in self._terms.values() for m in ce._terms}
        text = {m: (rank, "*".join(m.text_parts()))
                for rank, m in enumerate(sorted(distinct, key=CoeffMonomial.sort_key))}
        entries: list[tuple[RationalLike, str]] = []
        for vm, ce in self.sorted_terms():
            vtext = "*".join(vm.text_parts())
            terms = [text[m] + (q,) for m, q in ce._terms.items()]
            terms.sort()
            for _, mtext, q in terms:
                entries.append((q, f"{mtext}*{vtext}" if mtext and vtext else mtext or vtext))
        return _render_terms(entries)

    def __repr__(self) -> str:
        return f"Poly(dim={self._dim}, {self})"
