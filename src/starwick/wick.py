"""Wick powers, the Wick theorem at function level, and expectations.

The Wick power of a coordinate is its iterated star power; in closed
form it is the Hermite-type sum

    sum_k  l! / (2^k k! (l-2k)!) * hbar^k * K_ii^k * x_i^(l-2k).

A Wick monomial star-multiplies Wick powers of distinct coordinates
under a second propagator.  Its expectation is a purely combinatorial
functional: a weighted sum of propagator products over the adjacency
matrices whose row sums match the exponents.  The ground truth for every
identity in this module is the star-product engine itself; the closed
forms are checked against it rather than trusted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import CoeffElement, CoeffMonomial, Poly
from .combinat import (
    AdjacencyMatrix,
    enumerate_adjacency_by_degree,
    enumerate_adjacency_by_rowsums,
    multinomial,
)
from .star import (
    PropagatorChangeTerm, PropagatorMatrix, reexpand, star_multi, _check_dims, _check_ordinary
)


@dataclass(frozen=True)
class WickMonomialSpec:
    """Exponents plus the two propagators of a Wick monomial.

    ``ordering`` drives the Wick powers themselves; ``product`` drives
    the star product connecting them.
    """

    powers: tuple[int, ...]
    ordering: PropagatorMatrix
    product: PropagatorMatrix

    def __post_init__(self) -> None:
        d = len(self.powers)
        if d < 1:
            raise ValueError("at least one factor is required")
        if any(p < 0 for p in self.powers):
            raise ValueError("powers must be non-negative")
        if self.ordering.dim != d or self.product.dim != d:
            raise ValueError("propagator dimensions must match the power count")


def _hermite_coefficient(power: int, k: int) -> Fraction:
    """``power! / (2^k k! (power - 2k)!)``: the ``hbar^k`` weight of a Wick power."""
    return Fraction(
        math.factorial(power), 2**k * math.factorial(k) * math.factorial(power - 2 * k)
    )


def _hermite_terms(
    index: int, power: int, K: PropagatorMatrix, dim: int | None, sign: int
) -> list[tuple[CoeffElement, int]]:
    """Nonzero ``(sign^k * c_k * hbar^k * K_ii^k, power - 2k)`` pairs."""
    d = K.dim if dim is None else dim
    if d != K.dim:
        raise ValueError("dimension must match the propagator matrix")
    if not 1 <= index <= d:
        raise ValueError(f"variable index {index} out of range 1..{d}")
    if power < 0:
        raise ValueError("power must be non-negative")
    diag = K.entry(index, index)
    out: list[tuple[CoeffElement, int]] = []
    for k in range(power // 2 + 1):
        c = _hermite_coefficient(power, k) * sign**k
        coeff = CoeffElement({CoeffMonomial(hbar=k): c}) * diag**k
        if not coeff.is_zero():
            out.append((coeff, power - 2 * k))
    return out


def wick_power(index: int, power: int, K: PropagatorMatrix, dim: int | None = None) -> Poly:
    """Wick power of ``x_index``: the closed Hermite-type form."""
    terms = _hermite_terms(index, power, K, dim, 1)
    x = Poly.variable(index, K.dim)
    out = Poly.zero(K.dim)
    for coeff, degree in terms:
        out = out + x**degree * coeff
    return out


def wick_unpower(
    index: int, power: int, K: PropagatorMatrix, dim: int | None = None
) -> list[tuple[CoeffElement, int]]:
    """Expand a plain power in Wick powers: ``(coefficient, degree)`` pairs.

    Substituting :func:`wick_power` back for each degree recovers
    ``x_index ** power`` exactly; the coefficients are those of the Wick
    power with hbar negated.
    """
    return _hermite_terms(index, power, K, dim, -1)


def wick_monomial_star(spec: WickMonomialSpec, order: int | None = None) -> Poly:
    """Star product of the Wick powers ``:x_i^{n_i}:`` under ``spec.product``."""
    d = len(spec.powers)
    factors = [wick_power(i + 1, p, spec.ordering, d) for i, p in enumerate(spec.powers)]
    return star_multi(factors, spec.product, order)


def expectation_formula(spec: WickMonomialSpec) -> CoeffElement:
    """Combinatorial expectation: sum over matrices with prescribed row sums.

    Each matrix contributes ``(1/m!) * multinomial * prod K_ij^{m_ij}``
    in the product propagator, with ``m`` half the total power; sequences
    realized by no matrix give zero.
    """
    total = sum(spec.powers)
    if total % 2:
        return CoeffElement.zero()
    m = total // 2
    acc = CoeffElement.zero()
    weight = Fraction(1, math.factorial(m))
    powers: dict[tuple[int, int, int], CoeffElement] = {}
    for matrix in enumerate_adjacency_by_rowsums(spec.powers):
        term = CoeffElement.from_rational(weight * multinomial(m, matrix.upper_values()))
        for i, j, mult in matrix.upper_items():
            if (i, j, mult) not in powers:
                powers[i, j, mult] = spec.product.entry(i, j) ** mult
            term = term * powers[i, j, mult]
        acc = acc + term
    return acc


def expectation_oracle(spec: WickMonomialSpec) -> CoeffElement:
    """Brute-force expectation: top-hbar constant coefficient of the product.

    Requires the ordering propagator to have a zero diagonal; otherwise
    the constant top coefficient also picks up diagonal terms from the
    Wick powers themselves and no longer matches the combinatorial sum.
    """
    if not spec.ordering.has_zero_diagonal():
        raise ValueError("ordering propagator must have a zero diagonal")
    total = sum(spec.powers)
    if total % 2:
        warnings.warn("odd total power: expectation vanishes by convention")
        return CoeffElement.zero()
    m = total // 2
    product = wick_monomial_star(spec, order=m)
    return product.constant_coeff().hbar_part(m, strip=True)


@dataclass(frozen=True)
class WickTheoremTerm:
    """One term of the function-level Wick theorem.

    ``matrix`` is the adjacency matrix over factor indices, ``orders``
    its row sums (the derivative order applied to each factor), and
    ``coeff`` carries ``hbar^k/k!`` times the multinomial weight and the
    product of propagator-entry differences.
    """

    matrix: AdjacencyMatrix
    coeff: CoeffElement
    orders: tuple[int, ...]


def _own_variable_degree(f: Poly, index: int) -> int:
    degree = 0
    for vm, _ in f.items():
        for (block, var), exp in vm.items:
            if block != 0 or var != index:
                raise ValueError(
                    f"factor {index} must depend only on x{index}, found x{var}"
                )
            degree = max(degree, exp)
    return degree


def wick_theorem_expand(
    factors: Sequence[Poly],
    K: PropagatorMatrix,
    Kp: PropagatorMatrix,
    order: int | None = None,
) -> list[WickTheoremTerm]:
    """Expand a star product over ``K`` into star products over ``Kp``.

    Factors must be single-variable (factor ``i`` depends on ``x_i``
    only), which pins every derivative to the factor's own variable and
    lets each term keep its adjacency matrix.  Re-expansion with
    :func:`reexpand_wick` reproduces ``star_multi(factors, K)`` exactly.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("expansion needs at least one factor")
    _check_ordinary(*factors)
    _check_dims(K, *factors)
    if K.dim != Kp.dim:
        raise ValueError("propagator matrices must share a dimension")
    d = len(factors)
    if d != K.dim:
        raise ValueError(
            f"expected one factor per matrix dimension ({K.dim}), got {d}"
        )
    degrees = [_own_variable_degree(f, i + 1) for i, f in enumerate(factors)]
    kmax = sum(degrees) // 2
    if order is not None:
        kmax = min(kmax, order)
    diff = K - Kp
    terms: list[WickTheoremTerm] = []
    for k in range(kmax + 1):
        base = Fraction(1, math.factorial(k))
        for matrix in enumerate_adjacency_by_degree(d, 2 * k, row_caps=degrees):
            coeff = CoeffElement(
                {CoeffMonomial(hbar=k): base * multinomial(k, matrix.upper_values())}
            )
            for i, j, mult in matrix.upper_items():
                coeff = coeff * diff.entry(i, j) ** mult
            if coeff.is_zero():
                continue
            terms.append(WickTheoremTerm(matrix, coeff, matrix.row_sums()))
    return terms


def reexpand_wick(
    terms: Sequence[WickTheoremTerm],
    factors: Sequence[Poly],
    K: PropagatorMatrix,
    order: int | None = None,
) -> Poly:
    """Evaluate Wick-theorem terms with star products over ``K``.

    A term differentiates factor ``i`` only in its own variable ``x_i``,
    so it is the propagator-change term with that multi-index, and
    :func:`starwick.star.reexpand` evaluates it.
    """
    changes = [
        PropagatorChangeTerm(t.coeff, tuple((0,) * i + (a,) for i, a in enumerate(t.orders)))
        for t in terms
    ]
    return reexpand(changes, factors, K, order)
