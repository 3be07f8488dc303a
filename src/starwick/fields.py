"""Numeric specialization: sampled kernels, field values and quadrature.

A grid holds sample points of the underlying space together with the
kernel matrix ``K(x_i, x_j)``, the field samples ``phi(x_i)`` and a
numeric value for hbar.  Rational mode keeps everything exact; float
mode trades exactness for range.  Field operations specialize the kernel
first: they run the function-level engines on the grid's kernel numbers,
and the tests hold the engines over the family ``K[K;i,j]``, specialized
afterwards, as the oracle.  Functional star products cross-sample the
kernel per node pair, so they contract each term's Feynman graph by factor.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from fractions import Fraction
from typing import Sequence

from .algebra import Poly, PropagatorSymbol, _Value
from .star import PropagatorMatrix, poisson_bracket, star2, star_tensor, _common_denominator
from .wick import WickMonomialSpec, expectation_formula, wick_power

Num = Fraction | float

_MODES = ("rational", "float")


def _decode_number(value, mode: str) -> Num:
    if isinstance(value, bool):
        raise ValueError("booleans are not numbers")
    if mode == "float":
        try:
            return float(value)
        except OverflowError:
            raise ValueError("float grid values must be finite") from None
        except TypeError:
            raise ValueError(f"float mode cannot hold {value!r}") from None
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            # Fraction would compute the power of ten exactly, however large.
            raise ValueError(f"rational mode refuses exponent notation in {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"rational mode cannot hold {value!r}; use 'p/q' strings")


def _listed(value, name: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"grid {name} must be a list, got {type(value).__name__}")
    return value


def _encode_number(value: Num, mode: str):
    if mode == "float":
        return float(value)
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else f"{value}"


class KernelGrid(_Value):
    """Sampled kernel and field data over labeled points.

    The kernel is read as written; a grid carries no symmetry label.
    Symmetry lives in the symbols (``family(symmetric=True)`` and ``--sym``),
    and a symbol on a grid takes ``kernel[i][j]`` (:func:`specialize`).
    """

    points: tuple[str, ...]
    kernel: tuple[tuple[Num, ...], ...]
    field: tuple[Num, ...]
    hbar: Num
    mode: str = "rational"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not all(isinstance(p, str) for p in self.points):
            raise ValueError("sample point labels must be strings")
        if len(set(self.points)) != len(self.points):
            raise ValueError("sample point labels must be distinct")
        d = len(self.points)
        if len(self.kernel) != d or any(len(row) != d for row in self.kernel):
            raise ValueError("kernel must be square over the sample points")
        if len(self.field) != d:
            raise ValueError("one field value per sample point is required")
        values = list(itertools.chain((self.hbar,), self.field, *self.kernel))
        if self.mode == "float":
            if not all(math.isfinite(v) for v in values):
                raise ValueError("float grid values must be finite")
        elif any(isinstance(v, bool) or not isinstance(v, (int, Fraction)) for v in values):
            raise ValueError("rational grid values must be integers or fractions")

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def make(
        cls,
        points: Sequence[str],
        kernel: Sequence[Sequence],
        field: Sequence,
        hbar,
        mode: str = "rational",
    ) -> "KernelGrid":
        return cls(
            tuple(_listed(points, "points")),
            tuple(
                tuple(_decode_number(v, mode) for v in _listed(row, "kernel row"))
                for row in _listed(kernel, "kernel")
            ),
            tuple(_decode_number(v, mode) for v in _listed(field, "field")),
            _decode_number(hbar, mode),
            mode,
        )

    @classmethod
    def from_json(cls, text_or_data) -> "KernelGrid":
        data = text_or_data
        if isinstance(text_or_data, str):
            try:
                data = json.loads(text_or_data)
            except RecursionError:
                raise ValueError("grid JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("grid JSON must be an object")
        missing = {"points", "kernel", "field"} - data.keys()
        if missing:
            raise ValueError(f"grid JSON missing keys: {sorted(missing)}")
        unknown = data.keys() - {"points", "kernel", "field", "hbar", "mode"}
        if unknown:
            raise ValueError(f"grid JSON has unknown keys: {sorted(unknown, key=repr)}")
        return cls.make(
            data["points"],
            data["kernel"],
            data["field"],
            data.get("hbar", 1),
            data.get("mode", "rational"),
        )

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "kernel": [[_encode_number(v, self.mode) for v in row] for row in self.kernel],
            "field": [_encode_number(v, self.mode) for v in self.field],
            "hbar": _encode_number(self.hbar, self.mode),
            "mode": self.mode,
        }

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise ValueError(f"unknown sample point {label!r}") from None


def _over_common_denominator(values: Sequence[Num], mode: str) -> tuple[list, int]:
    """Rational values as integer numerators over their least common denominator.

    Float mode returns the values as floats over 1, so exact and float
    quadrature share one loop of plain products and sums.
    """
    if mode == "float":
        return [float(v) for v in values], 1
    return _common_denominator(values)


def specialize(p: Poly, grid: KernelGrid) -> Num:
    """Substitute kernel values, field samples and hbar into a result.

    A symbol reads as written: ``K[F;i,j]`` takes ``grid.kernel[i-1][j-1]``
    for every family ``F``, so ``K[K;2,1]`` is the second row's first
    entry even when the kernel is not symmetric.  Symmetry lives in the
    symbols: a ``family(symmetric=True)`` symbol already names its
    ``(min, max)`` entry.  Variables take the field sample of their index,
    in every block.
    """
    d = grid.size

    def sym_value(sym: PropagatorSymbol):
        if sym.row > d or sym.col > d:
            raise ValueError(f"symbol {sym.text()} exceeds the {d}-point grid")
        return grid.kernel[sym.row - 1][sym.col - 1]

    def var_value(block: int, index: int):
        if index > d:
            raise ValueError(f"variable x{index} exceeds the {d}-point grid")
        return grid.field[index - 1]

    value = p.evaluate(var_value, sym_value, grid.hbar)
    return float(value) if grid.mode == "float" else Fraction(value)


def _kernel(grid: KernelGrid, d: int, noun: str = "variables") -> PropagatorMatrix:
    """The grid kernel's top-left ``d x d`` block as exact entries (a float
    converts exactly): the values :func:`specialize` gives ``K[K;i,j]``."""
    if d > grid.size:
        raise ValueError(f"more {noun} than sample points")
    return PropagatorMatrix.from_entries([[Fraction(v) for v in row[:d]] for row in grid.kernel[:d]])


def field_star(f: Poly, g: Poly, grid: KernelGrid, order: int | None = None) -> Num:
    """Star product of two densities at coincident sample points."""
    return specialize(star2(f, g, _kernel(grid, f.dim), order), grid)


def field_poisson(f: Poly, g: Poly, grid: KernelGrid) -> Num:
    """Field-level bracket: antisymmetrized kernel against both gradients."""
    return specialize(poisson_bracket(f, g, _kernel(grid, f.dim)), grid)


def field_wick_power(index: int, power: int, grid: KernelGrid) -> Num:
    """Wick power of the field sample at one point: :func:`starwick.wick.wick_power`
    read through :func:`specialize`."""
    if not 1 <= index <= grid.size:
        raise ValueError(f"point index {index} out of range 1..{grid.size}")
    return specialize(wick_power(index, power, _kernel(grid, grid.size)), grid)


def field_expectation(powers: Sequence[int], grid: KernelGrid) -> Num:
    """Expectation of a field Wick monomial on the grid kernel:
    :func:`starwick.wick.expectation_formula` read through :func:`specialize`."""
    powers = tuple(powers)
    K = _kernel(grid, len(powers), "powers")
    # A Wick power reads only the ordering's diagonal, so the zero ordering
    # stands for the zero-diagonal family of ``expect``.
    spec = WickMonomialSpec(powers, PropagatorMatrix.zero(K.dim), K)
    return specialize(Poly.constant(expectation_formula(spec), K.dim), grid)


class QuadratureRule(_Value):
    """Weighted nodes; every node is a tuple of grid point labels."""

    nodes: tuple[tuple[str, ...], ...]
    weights: tuple[Num, ...]
    factors = ()  # not a field: rules whose product this is, set by all_tuples

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("at least one node is required")
        if len(self.nodes) != len(self.weights):
            raise ValueError("one weight per node is required")
        if any(isinstance(w, float) and not math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        arity = len(self.nodes[0])
        if any(len(node) != arity for node in self.nodes):
            raise ValueError("all nodes must have the same arity")

    @property
    def arity(self) -> int:
        return len(self.nodes[0])

    @classmethod
    def all_tuples(cls, grid: KernelGrid, arity: int, weight: Num = 1) -> "QuadratureRule":
        """Uniform rule over every arity-tuple of grid points: the product of
        one one-point rule per component, the first carrying the weight."""
        nodes = tuple(itertools.product(grid.points, repeat=arity))
        w = _decode_number(weight, grid.mode)
        rule, points = cls(nodes, tuple(w for _ in nodes)), tuple((p,) for p in grid.points)
        factors = (cls(points, (w if k == 0 else 1,) * len(points)) for k in range(arity))
        object.__setattr__(rule, "factors", tuple(factors))
        return rule


def functional_star(
    f: Poly,
    g: Poly,
    rule: QuadratureRule,
    grid: KernelGrid,
    order: int | None = None,
) -> Num:
    """Double quadrature of the two-block star product over node pairs.

    The integrand couples the factors through the cross-sampled kernel
    ``K(s_r, t_c)``, with the field at node ``s`` in ``f`` and at ``t`` in
    ``g``.  Each integrand row is a Feynman graph, its kernel factors edges
    from ``s_r`` to ``t_c``.  Per ``s``, the sum over ``t`` is a product of
    inner sums, one per factor of the rule (an explicit rule is one), each
    tabulated by the ``s_r`` its edges start at: a product rule over ``n``
    points at arity ``a`` costs ``O(a * n^(a+1))`` per row.  Rational grids
    run on integers over common denominators; weights take the grid's mode.
    """
    if f.dim != g.dim:
        raise ValueError("densities must share a dimension")
    if rule.arity != f.dim:
        raise ValueError(
            f"rule nodes have arity {rule.arity}, densities use {f.dim} variables"
        )
    K = PropagatorMatrix.family("K", f.dim)
    symbolic = star_tensor(f, g.relabel_blocks({0: 1}), K, order)
    mode = grid.mode

    def weighted(r: QuadratureRule) -> tuple[list, list, int]:
        ws, den = _over_common_denominator([_decode_number(w, mode) for w in r.weights], mode)
        return [tuple(grid.index(lbl) for lbl in node) for node in r.nodes], ws, den

    # The left node runs over the same product of factors as the right one.
    factors = [weighted(factor) for factor in rule.factors or (rule,)]
    nodes = [sum(p, ()) for p in itertools.product(*(pts for pts, _, _ in factors))]
    weights = [math.prod(w) for w in itertools.product(*(ws for _, ws, _ in factors))]
    flat, k_den = _over_common_denominator([v for row in grid.kernel for v in row], mode)
    d = grid.size
    kernel = [flat[i * d : (i + 1) * d] for i in range(d)]
    field, f_den = _over_common_denominator(grid.field, mode)

    # Lower the integrand once into rows: a constant (hbar^h over the kernel
    # and field scales of the row's degrees), the field factors (index, exp)
    # at the left and the right node, and the kernel edges (row, col, exp).
    # Coefficients may be ints, so a rational hbar is made a Fraction to keep
    # each constant exact.
    hbar = grid.hbar if mode == "float" else Fraction(grid.hbar)
    consts, rows = [], []
    for vm, ce in symbolic.items():
        left = tuple((i - 1, e) for (block, i), e in vm.items if block == 0)
        right = tuple((i - 1, e) for (block, i), e in vm.items if block != 0)
        for mono, q in ce.items():
            for s, _ in mono.symbols:
                if max(s.row, s.col) > rule.arity:
                    raise ValueError(f"symbol {s.text()} exceeds the node arity {rule.arity}")
            edges = tuple((s.row - 1, s.col - 1, e) for s, e in mono.symbols)
            k_deg = sum(e for _, _, e in edges)
            consts.append(q * hbar**mono.hbar / (k_den**k_deg * f_den ** vm.degree()))
            rows.append((left, right, edges))
    consts, c_den = _over_common_denominator(consts, mode)

    def sampled(points, ws, powers):
        """Per point, its weight times the field powers sampled there."""
        out = []
        for p, w in zip(points, ws):
            for i, e in powers:
                w *= field[p[i]] ** e
            out.append(w)
        return out

    @functools.cache
    def inner(k, right, edges):
        """Per left node, the sum over factor ``k`` of the right powers and edges in it."""
        points, ws, _ = factors[k]
        base = sampled(points, ws, right)
        if not edges:
            return [sum(base)] * len(nodes)
        columns, key = list(zip(*points)), operator.itemgetter(*{r for r, _, _ in edges})
        table = {}
        for s in nodes:
            if key(s) not in table:
                terms = base
                for r, c, e in edges:
                    terms = map(operator.mul, terms, [kernel[s[r]][j] ** e for j in columns[c]])
                table[key(s)] = sum(terms)
        return [table[key(s)] for s in nodes]

    lefts = functools.cache(lambda left: sampled(nodes, weights, left))
    total = 0
    for c, (left, right, edges) in zip(consts, rows):
        column, lo = lefts(left), 0
        for k, (points, _, _) in enumerate(factors):
            hi = lo + len(points[0])
            here = tuple((i - lo, e) for i, e in right if lo <= i < hi)
            into = tuple((r, col - lo, e) for r, col, e in edges if lo <= col < hi)
            column, lo = map(operator.mul, column, inner(k, here, into)), hi
        total += c * sum(column)
    if mode == "float":
        return float(total)
    return Fraction(total, c_den * math.prod(den for _, _, den in factors) ** 2)
