"""Wick powers, the Wick theorem at function level, and expectations.

The Wick power of a coordinate is its iterated star power; in closed
form it is the Hermite-type sum

    sum_k  l! / (2^k k! (l-2k)!) * hbar^k * K_ii^k * x_i^(l-2k),

built term by term from the ratio of consecutive coefficients, with one
multiply by ``hbar * K_ii`` per term; ``l // 2`` above the cap
``_MAX_EXPECT_POWER`` is refused before any term is built.

A Wick monomial star-multiplies Wick powers of distinct coordinates
under a second propagator ``K``.  Its expectation is a purely
combinatorial functional, the Isserlis sum

    sum_m  prod_{i<j} K_ij^{m_ij} / m_ij!

over the adjacency matrices ``m`` whose row sums are the exponents.
The one fold over the row states of those matrices,
:func:`starwick.combinat._fold`, walks them backwards, so a sum over
completions shared by many prefixes is computed once.  It has three
steps: the path count and the matrices of :mod:`starwick.combinat`, and
here the Isserlis sum of :func:`_expectation_terms`.  The Isserlis terms
are in the packed format of the star products:
:class:`starwick.star._Packing` sizes, scales and multiplies them, and
this module builds no key, bound or denominator of its own.
:func:`expectation_formula` decodes the terms into a ``CoeffElement``;
the ``expect`` command writes them as text through
:meth:`starwick.star._Packing.text` without decoding them.  The ground
truth for every identity in this module is the star-product engine itself:
:func:`expectation_oracle` reads the expectation off the star product,
and the tests add Kan's moment formula (``kan_moment``) as a third,
enumeration-free route.  The closed forms are checked against them
rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import CoeffElement, CoeffMonomial, Poly
from .combinat import (
    AdjacencyMatrix, enumerate_adjacency_by_degree, multinomial, _fold, _int_sequence, _row_states,
)
from .star import (
    PropagatorChangeTerm, PropagatorMatrix, reexpand, star_multi, _check_factors, _Packing,
)


# The largest total power ``h = sum(n) // 2`` that :func:`expectation_formula`
# takes on, and the largest ``power // 2`` of a Hermite expansion
# (:func:`_hermite_terms`).  The expectation's power tables reach the entries
# of ``n`` and its denominator is ``h!``, and a Hermite expansion has
# ``power // 2 + 1`` terms, so a huge input would run until killed.  At the
# cap ``h!`` has 2,568 digits and the widest Hermite coefficient 2,887, below
# Python's 4,300-digit limit for printing an integer.  The benchmark pools
# reach h = 9.
_MAX_EXPECT_POWER = 1000


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
        object.__setattr__(self, "powers", _int_sequence(self.powers))
        d = len(self.powers)
        if d < 1:
            raise ValueError("at least one factor is required")
        if any(p < 0 for p in self.powers):
            raise ValueError("powers must be non-negative")
        if self.ordering.dim != d or self.product.dim != d:
            raise ValueError("propagator dimensions must match the power count")


def _check_hermite_power(power: int) -> None:
    """Refuse a Hermite expansion whose ``power // 2`` is above the cap."""
    if power // 2 > _MAX_EXPECT_POWER:
        raise ValueError(f"power // 2 = {power // 2} exceeds the Hermite cap "
                         f"of {_MAX_EXPECT_POWER}")


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
    _check_hermite_power(power)
    # c_0 = 1 and c_{k+1} / c_k = (p - 2k)(p - 2k - 1) / (2(k + 1)).
    step = CoeffElement.hbar() * K.entry(index, index)
    out, coeff = [], CoeffElement.one()
    for k in range(power // 2 + 1):
        if not coeff:
            break
        out.append((coeff, power - 2 * k))
        coeff = coeff * step * Fraction(sign * (power - 2 * k) * (power - 2 * k - 1), 2 * (k + 1))
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
    """Combinatorial expectation: a sum over the adjacency matrices ``m``
    with row sums ``spec.powers``.

    The result is ``sum_m prod_{i<j} K_ij^{m_ij} / m_ij!`` with ``K`` the
    product propagator.  The matrices are the paths through row states
    (:func:`starwick.combinat._row_states`), folded from the last row
    back; with no layers no matrix exists and the result is zero.  A state
    with ``E`` edges left holds ``E!`` times the sum over its completions
    of ``prod (scale * K_ij)^{m_ij} / m_ij!`` as packed terms
    (:class:`starwick.star._Packing`), so a sum shared by many prefixes is
    computed once.  The start state's sum is over ``h! * scale^h``, where
    ``h`` is half the total power and ``scale`` the common denominator of
    the entries.  :func:`expectation_oracle` and the tests' ``kan_moment``
    and ``expectation_by_matrices`` are the oracles.  An admissible ``n``
    with ``h`` above ``_MAX_EXPECT_POWER`` is refused with ``ValueError``
    before any power table or factorial is built.
    """
    packing, terms, den = _expectation_terms(spec)
    return packing.coeff_element(terms, den)


def _check_total_power(h: int) -> None:
    """Refuse an expectation whose total power ``h`` is above the cap."""
    if h > _MAX_EXPECT_POWER:
        raise ValueError(f"total power sum(n) // 2 = {h} exceeds the expectation cap "
                         f"of {_MAX_EXPECT_POWER}")


def _expectation_terms(spec: WickMonomialSpec) -> tuple[_Packing, Iterable[tuple[int, int]], int]:
    """:func:`expectation_formula` as packed terms over a denominator: its
    packing, the ``(key, numerator)`` terms and the denominator."""
    n = spec.powers
    layers = _row_states(n)
    if not layers:
        return _Packing([], 0), (), 1
    h, d = sum(n) // 2, len(n)
    _check_total_power(h)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    entries = [spec.product.entries[i][j] for i, j in pairs]
    packing = _Packing(entries, h)
    bases, scale = packing.scaled(entries, 0)
    product = packing.product
    # powers[i, j][v] lists the packed terms of (scale * K_ij)^v.
    powers = {}
    for (i, j), base in zip(pairs, bases):
        table = powers[i, j] = [[(0, 1)]]
        for _ in range(min(n[i], n[j])):
            table.append(list(product(table[-1], base, {}).items()))
    # A row taking c_j of its need to column j leaves E' = E - need edges
    # and weighs E! / (prod c_j! * E'!) = perm(E, need) / prod c_j!, an
    # integer, built once per row and weight (a row's length fixes its layer).
    rows = {}

    def step(i, state, moves, below):
        top = math.perm(sum(state) // 2, state[0])
        acc = {}
        for row, rest in moves:
            terms = rows.get((row, top))
            if terms is None:
                terms = [(0, top // math.prod(map(math.factorial, row)))]
                for j, v in enumerate(row, i + 1):
                    if v:
                        terms = product(terms, powers[i, j][v], {}).items()
                rows[row, top] = terms
            product(terms, below[rest].items(), acc)
        return acc

    return packing, _fold(layers, {0: 1}, step).items(), math.factorial(h) * scale**h


def expectation_oracle(spec: WickMonomialSpec) -> CoeffElement:
    """Brute-force expectation: top-hbar constant coefficient of the product.

    Requires the ordering propagator to have a zero diagonal; otherwise
    the constant top coefficient also picks up diagonal terms from the
    Wick powers themselves and no longer matches the combinatorial sum.
    An odd total power gives zero.  Before any Wick power is built, the
    Hermite cap refuses an entry, as :func:`wick_power` would, and the
    expectation cap a total power, as :func:`expectation_formula` does.
    """
    if not spec.ordering.has_zero_diagonal():
        raise ValueError("ordering propagator must have a zero diagonal")
    total = sum(spec.powers)
    if total % 2:
        return CoeffElement.zero()
    m = total // 2
    for power in spec.powers:
        _check_hermite_power(power)
    _check_total_power(m)
    product = wick_monomial_star(spec, order=m)
    return product.constant_coeff().hbar_part(m)


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
    factors = _check_factors(factors, K, order)
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
        PropagatorChangeTerm(
            t.coeff, tuple(tuple(a if k == i else 0 for k in range(len(t.orders)))
                           for i, a in enumerate(t.orders))
        )
        for t in terms
    ]
    return reexpand(changes, factors, K, order)
