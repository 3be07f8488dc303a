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
completions shared by many prefixes is computed once.  It has four
steps: the path count and the matrices of :mod:`starwick.combinat`, and
here the Isserlis sum of :func:`expectation_formula` and the graph list
of :func:`_expectation_text`.  The Isserlis terms are in the packed
format of the star products: :class:`starwick.star._Packing` sizes,
scales and multiplies them, and :func:`expectation_formula` decodes them
into a ``CoeffElement``.  The ``expect`` command names every entry by its
own symbol, so each matrix is one Feynman graph and one term of its
text, and :func:`_expectation_text` writes that list of graphs in
canonical order as it walks the row states, whose moves come in that
order, with no packed term, value or sort; the packed sum is its oracle
in the tests.  The ground truth for every identity in this module is the
star-product engine itself:
:func:`expectation_oracle` reads the expectation off the star product of
the Wick powers, folded packed (:func:`starwick.star._moyal_fold`), as
the packed keys with no variable and ``hbar^m``, without decoding the
product; the tests add Kan's moment formula (``kan_moment``) as a third,
enumeration-free route.  The closed forms are checked against them
rather than trusted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .algebra import CoeffElement, CoeffMonomial, Poly, PropagatorSymbol, _Value
from .combinat import (
    AdjacencyMatrix, enumerate_adjacency_by_degree, multinomial, _count_over, _fold,
    _int_sequence, _row_states, _Memo, _MAX_MATRICES,
)
from .star import (
    PropagatorChangeTerm, PropagatorMatrix, reexpand, star_multi, _check_factors, _moyal_fold,
    _packed, _Packing,
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

# The ``(prod m_ij!, text)`` of each row :func:`_expectation_text` has met,
# across calls, keyed by ``(family, layer, row)``.  An entry counts the
# bytes of its key, family, row, weight and text: the 244 ``expect``
# instances of the benchmark pool meet 715 rows, which count 245,431.
_MAX_ROW_TEXT_BYTES = 1 << 19
_ROW_TEXTS = _Memo(_MAX_ROW_TEXT_BYTES)


class WickMonomialSpec(_Value):
    """Exponents plus the two propagators of a Wick monomial.

    ``ordering`` drives the Wick powers themselves; ``product`` drives
    the star product connecting them.
    """

    powers: tuple[int, ...]
    ordering: PropagatorMatrix
    product: PropagatorMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "powers", _powers(self.powers))
        if not self.ordering.dim == self.product.dim == len(self.powers):
            raise ValueError("propagator dimensions must match the power count")


def _powers(powers: Sequence[int]) -> tuple[int, ...]:
    """``powers`` as a tuple of one or more non-negative ints, else ``ValueError``."""
    powers = _int_sequence(powers)
    if not powers:
        raise ValueError("at least one factor is required")
    if any(p < 0 for p in powers):
        raise ValueError("powers must be non-negative")
    return powers


def _check_cap(quantity: str, value: int, cap: str) -> None:
    """Refuse a ``value`` above ``_MAX_EXPECT_POWER``; ``quantity`` names
    the value and ``cap`` the cap in the message."""
    if value > _MAX_EXPECT_POWER:
        raise ValueError(f"{quantity} = {value} exceeds the {cap} cap of {_MAX_EXPECT_POWER}")


def _hermite_terms(
    index: int, power: int, K: PropagatorMatrix, sign: int
) -> list[tuple[CoeffElement, int]]:
    """Nonzero ``(sign^k * c_k * hbar^k * K_ii^k, power - 2k)`` pairs."""
    if not 1 <= index <= K.dim:
        raise ValueError(f"variable index {index} out of range 1..{K.dim}")
    if power < 0:
        raise ValueError("power must be non-negative")
    _check_cap("power // 2", power // 2, "Hermite")
    # c_0 = 1 and c_{k+1} / c_k = (p - 2k)(p - 2k - 1) / (2(k + 1)).
    step = CoeffElement.hbar() * K.entry(index, index)
    out, coeff = [], CoeffElement.one()
    for k in range(power // 2 + 1):
        if not coeff:
            break
        out.append((coeff, power - 2 * k))
        coeff = coeff * step * Fraction(sign * (power - 2 * k) * (power - 2 * k - 1), 2 * (k + 1))
    return out


def wick_power(index: int, power: int, K: PropagatorMatrix) -> Poly:
    """Wick power of ``x_index``: the closed Hermite-type form."""
    terms = _hermite_terms(index, power, K, 1)
    x = Poly.variable(index, K.dim)
    out = Poly.zero(K.dim)
    for coeff, degree in terms:
        out = out + x**degree * coeff
    return out


def wick_unpower(index: int, power: int, K: PropagatorMatrix) -> list[tuple[CoeffElement, int]]:
    """Expand a plain power in Wick powers: ``(coefficient, degree)`` pairs.

    Substituting :func:`wick_power` back for each degree recovers
    ``x_index ** power`` exactly; the coefficients are those of the Wick
    power with hbar negated.
    """
    return _hermite_terms(index, power, K, -1)


def wick_monomial_star(spec: WickMonomialSpec, order: int | None = None) -> Poly:
    """Star product of the Wick powers ``:x_i^{n_i}:`` under ``spec.product``."""
    factors = [wick_power(i + 1, p, spec.ordering) for i, p in enumerate(spec.powers)]
    return star_multi(factors, spec.product, order)


def _expectation_layers(n: Sequence[int], own_symbols: bool) -> list[dict]:
    """The row states of ``n`` (:func:`starwick.combinat._row_states`), none
    when ``n`` is not admissible.  An admissible ``n`` is refused with
    ``ValueError`` when ``sum(n) // 2`` is above ``_MAX_EXPECT_POWER`` and,
    if each matrix is a term of its own (``own_symbols``), when it has more
    than ``_MAX_MATRICES`` matrices."""
    layers = _row_states(n)
    if layers:
        _check_cap("total power sum(n) // 2", sum(n) // 2, "expectation")
        if own_symbols and (count := _count_over(layers, _MAX_MATRICES)):
            raise ValueError(f"{count} terms exceed the matrix budget of {_MAX_MATRICES}")
    return layers


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
    before any power table or factorial is built, and so are more terms
    than ``_MAX_MATRICES`` when each matrix is a term of its own.
    """
    n = spec.powers
    h, d = sum(n) // 2, len(n)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    entries = [spec.product.entries[i][j] for i, j in pairs]
    # When each entry is its own symbol to the first power, as
    # ``PropagatorMatrix.family`` builds them, every matrix is a term of its
    # own, so the matrices are counted first and too many are refused.
    monomials = [tuple(m for m, _ in e.items()) for e in entries]
    layers = _expectation_layers(n, len(set(monomials)) == len(monomials) and all(
        len(ms) == 1 and ms[0].degree() == 1 == len(ms[0].symbols) for ms in monomials))
    if not layers:
        return CoeffElement.zero()
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

    return packing.coeff_element(_fold(layers, {0: 1}, step).items(), math.factorial(h) * scale**h)


def _expectation_text(n: Sequence[int], family: str) -> str:
    """``str(expectation_formula(spec))`` for the powers ``n`` under the
    family ``K[family;i,j]``, written as the list of its Feynman graphs;
    ``n`` is checked as :class:`WickMonomialSpec` checks its powers.

    With every entry its own symbol, each matrix ``m`` is one term
    ``prod K_ij^{m_ij} / prod m_ij!``, and no two merge.  All terms have
    degree ``h`` and no hbar, so :meth:`CoeffMonomial.sort_key` compares
    the upper-triangle exponents row-major, each ``v > 0`` read as ``v - 1``
    and ``0`` after any value: the canonical order, zero last, in which
    :func:`starwick.combinat._row_states` lists each state's moves.  So each
    state folds to the weights ``prod m_ij!`` and the texts of its
    completions, two parallel lists, and the start state's lists are in
    canonical order with no sort.  A row's weight and text are built by
    the first call that meets the row and kept in ``_ROW_TEXTS`` for the
    calls after.  It shares the caps and budgets of
    :func:`expectation_formula` (:func:`_expectation_layers`), which the
    tests read as the oracle.
    """
    layers = _expectation_layers(_powers(n), True)
    if not layers:
        return "0"

    def step(i, state, moves, below):
        weights, texts = [], []
        for row, rest in moves:
            pair = _ROW_TEXTS.get(key := (family, i, row))
            if pair is None:
                pair = (math.prod(map(math.factorial, row)), "".join(
                    f"*{PropagatorSymbol(family, i + 1, j).text()}" + (f"^{v}" if v > 1 else "")
                    for j, v in enumerate(row, i + 2) if v))
                if _ROW_TEXTS.reserve((key, family, row, pair, *pair)):
                    _ROW_TEXTS[key] = pair
            weight, text = pair
            below_weights, below_texts = below[rest]
            weights += [weight * w for w in below_weights] if weight > 1 else below_weights
            texts += [text + t for t in below_texts]
        return weights, texts

    # Each text starts with "*": a term over 1 drops it, any other writes 1/w
    # before it.  With no edges the one term is 1.
    terms = zip(*_fold(layers, ([1], [""]), step))
    return " + ".join([f"1/{w}{t}" if w > 1 else t[1:] for w, t in terms]) or "1"


def expectation_oracle(spec: WickMonomialSpec) -> CoeffElement:
    """Brute-force expectation: top-hbar constant coefficient of the product.

    The Wick powers are star-multiplied by the packed fold
    (:func:`starwick.star._moyal_fold`) cut at ``hbar^m``, ``m`` half the
    total power, and the coefficient is read off the packed keys that have
    no variable field and hbar field ``m``; the rest of the product is
    never decoded.  Requires the ordering propagator to have a zero
    diagonal; otherwise the constant top coefficient also picks up
    diagonal terms from the Wick powers themselves and no longer matches
    the combinatorial sum.
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
        _check_cap("power // 2", power // 2, "Hermite")
    _check_cap("total power sum(n) // 2", m, "expectation")
    factors = [wick_power(i + 1, p, spec.ordering) for i, p in enumerate(spec.powers)]
    packing, terms, den = _moyal_fold(*_packed(factors, spec.product, m), spec.product, m)
    return packing.coeff_element([(key - m, num) for key, num in terms
                                  if key < 1 << packing.coeff_bits and key & packing.mask == m], den)


class WickTheoremTerm(_Value):
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
        raise ValueError(f"expected one factor per matrix dimension ({K.dim}), got {d}")
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
