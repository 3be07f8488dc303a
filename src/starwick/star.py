"""Star products generated by a matrix of abstract propagator coefficients.

The product of two block groups is the closed-form sum

    f * g = sum_M hbar^|M| prod_ij K_ij^M_ij / M_ij! * D^r f * D^c g

over the ``d x d`` non-negative integer matrices ``M``, where ``r`` and
``c`` are the row and column sums of ``M`` and ``D_i`` differentiates in
``x_i`` over one factor's blocks.  It is the exponential of the cross
operator ``sum_ij K_ij d_i(f) d_j(g)`` written out index by index.  The
product is associative, so the multi-factor product is the pairwise
product folded left over the factors.  The graph sum
:func:`starwick.graphs.star_via_graphs`, which adds one internal vertex
at a time through :func:`apply_bivector`, is the independent oracle for
this fold.

Changing the propagator from ``K`` to ``K'`` is the same exponential over
every pair of factors ``a < b``, with ``K - K'`` as the matrix.  One walk
over the cell multiplicities, :func:`_moyal_weights`, yields the weights
of both, so it serves :func:`star2`, :func:`star_tensor` and
:func:`change_propagator`.

That walk and :func:`starwick.wick.expectation_formula` share one packed
format, :class:`_Packing`, whose one sizing rule is that the products of
``polys`` with ``k`` entries have no exponent above the sum of each
poly's total degree or widest coefficient plus ``k`` times one more than
the widest entry.

For polynomial inputs every series terminates, so ``order=None`` means
"run to termination" and yields the exact product; an explicit order
keeps all hbar degrees up to it, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorSymbol,
    VarMonomial,
    RationalLike,
    _TermSum,
    _as_element,
)


@dataclass(frozen=True)
class PropagatorMatrix:
    """Square grid of coefficient-algebra entries driving a star product."""

    dim: int
    entries: tuple[tuple[CoeffElement, ...], ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entry grid must be dim x dim")
        if self.symmetric:
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    if self.entries[i][j] != self.entries[j][i]:
                        raise ValueError(
                            "matrix declared symmetric but entries differ"
                        )

    @classmethod
    def family(
        cls,
        name: str,
        dim: int,
        symmetric: bool = False,
        zero_diagonal: bool = False,
    ) -> "PropagatorMatrix":
        """Matrix of fresh symbols ``K[name;i,j]``.

        A symmetric family stores both ``(i, j)`` and ``(j, i)`` as the
        (min, max)-indexed symbol, so equal-by-symmetry entries are equal
        on the nose.
        """
        rows = []
        for i in range(1, dim + 1):
            row = []
            for j in range(1, dim + 1):
                if zero_diagonal and i == j:
                    row.append(CoeffElement.zero())
                    continue
                a, b = (min(i, j), max(i, j)) if symmetric else (i, j)
                row.append(CoeffElement.from_symbol(PropagatorSymbol(name, a, b)))
            rows.append(tuple(row))
        return cls(dim, tuple(rows), symmetric=symmetric)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[Iterable[CoeffElement | RationalLike]],
        symmetric: bool = False,
    ) -> "PropagatorMatrix":
        rows = tuple(tuple(_as_element(v) for v in row) for row in entries)
        return cls(len(rows), rows, symmetric=symmetric)

    @classmethod
    def zero(cls, dim: int) -> "PropagatorMatrix":
        z = CoeffElement.zero()
        return cls(dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)), True)

    def entry(self, i: int, j: int) -> CoeffElement:
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ValueError(f"entry ({i}, {j}) out of range 1..{self.dim}")
        return self.entries[i - 1][j - 1]

    def __sub__(self, other: "PropagatorMatrix") -> "PropagatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return PropagatorMatrix(self.dim, rows, self.symmetric and other.symmetric)

    def has_zero_diagonal(self) -> bool:
        return all(self.entries[i][i].is_zero() for i in range(self.dim))


def _check_order(order: int | None) -> None:
    if order is not None and order < 0:
        raise ValueError("truncation order must be non-negative")


def apply_bivector(
    p: Poly, K: PropagatorMatrix, left_blocks: Iterable[int], right_blocks: Iterable[int]
) -> Poly:
    """One application of ``sum_ij K_ij d_i(left) d_j(right)``.

    ``d_i(left)`` is the derivative in ``x_i`` summed over the left blocks,
    and likewise on the right; the terms are summed in place.
    """
    left = tuple(left_blocks)
    right = tuple(right_blocks)
    acc = _TermSum()
    for j in range(1, K.dim + 1):
        for rb in right:
            dg = p.derivative(j, block=rb)
            if dg.is_zero():
                continue
            for i in range(1, K.dim + 1):
                e = K.entries[i - 1][j - 1]
                if e:
                    for lb in left:
                        for vm, ce in dg.derivative(i, block=lb).items():
                            acc.add(vm, ce, e)
    return acc.poly(p.dim)


def _check_dims(K: PropagatorMatrix, *polys: Poly) -> None:
    for p in polys:
        if p.dim != K.dim:
            raise ValueError(
                f"dimension mismatch: polynomial in {p.dim} variables, matrix {K.dim}"
            )


def _check_ordinary(*polys: Poly) -> None:
    for p in polys:
        if not p.blocks() <= {0}:
            raise ValueError("expected an ordinary (single-block) polynomial")


def _check_factors(factors: Sequence[Poly], K: PropagatorMatrix, order: int | None) -> list[Poly]:
    """The factors as a list, refused unless ordinary, nonempty and of ``K``'s dimension."""
    _check_order(order)
    factors = list(factors)
    if not factors:
        raise ValueError("at least one factor is required")
    _check_ordinary(*factors)
    _check_dims(K, *factors)
    return factors


def _common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = list(values)
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


class _Packing:
    """Monomials as packed integers, one fixed-width field per exponent.

    Field 0 holds the hbar exponent, then come one field per propagator
    symbol and one per block-tagged variable, each group in sorted order.
    A packing holds the products of ``polys`` with ``k`` of ``entries``,
    and its one sizing rule bounds every exponent they reach: the sum over
    ``polys`` of each one's total degree or widest coefficient, whichever
    is larger, plus ``k`` times one more than the widest entry (every
    entry may carry one more hbar).  Within that bound adding two keys
    multiplies their monomials and subtracting one unit lowers an
    exponent, with no carry or borrow between fields.  Coefficients are
    integer numerators over one denominator, and :meth:`product` is the
    one multiply-and-collect loop on such terms.
    """

    def __init__(self, entries: Sequence[CoeffElement], k: int, polys: Sequence[Poly] = ()):
        def widest(elements) -> int:
            return max((m.degree() for ce in elements for m, _ in ce.items()), default=0)

        bound = k * (1 + widest(entries)) + sum(
            max(p.total_degree(), widest(ce for _, ce in p.items())) for p in polys)
        self.width = width = bound.bit_length()
        self.mask = (1 << width) - 1
        self.symbols = sorted(set().union(*(p.symbols() for p in polys),
                                          *(e.symbols() for e in entries)))
        self.variables = sorted({v for p in polys for vm, _ in p.items() for v, _ in vm.items})
        self.sym_shift = {s: width * n for n, s in enumerate(self.symbols, start=1)}
        self.coeff_bits = width * (1 + len(self.symbols))
        self.var_shift = {v: self.coeff_bits + width * n for n, v in enumerate(self.variables)}
        self._coeff_keys: dict[CoeffMonomial, int] = {}
        self._monomials: dict[int, CoeffMonomial] = {}

    def coeff_key(self, m: CoeffMonomial) -> int:
        key = self._coeff_keys.get(m)
        if key is None:
            key = m.hbar + sum(e << self.sym_shift[s] for s, e in m.symbols)
            self._coeff_keys[m] = key
        return key

    def scaled(self, entries: Sequence[CoeffElement], hbar: int) -> tuple[list[list], int]:
        """Each entry times ``scale`` as packed integer terms, every monomial
        raised ``hbar`` degrees in hbar, and ``scale``, the entries' common
        denominator."""
        nums, scale = _common_denominator(q for e in entries for _, q in e.items())
        nums = iter(nums)
        return [[(self.coeff_key(m) + hbar, next(nums)) for m, _ in e.items()]
                for e in entries], scale

    @staticmethod
    def product(left: Iterable[tuple[int, int]], right: Sequence[tuple[int, int]],
                into: dict[int, int]) -> dict[int, int]:
        """Add the product of two packed term lists into ``into``, like terms collected."""
        for k1, n1 in left:
            if n1:
                for k2, n2 in right:
                    into[k1 + k2] = into.get(k1 + k2, 0) + n1 * n2
        return into

    def derivatives(self, p: Poly, d: int):
        """Lazy map ``r -> D^r p`` on packed terms, each entry derived once,
        and the denominator of their numerators.

        ``D_i`` lowers the field of ``x_i`` in every block of ``p``.
        """
        terms = [(sum(e << self.var_shift[v] for v, e in vm.items) + self.coeff_key(m), q)
                 for vm, ce in p.items() for m, q in ce.items()]
        nums, den = _common_denominator(q for _, q in terms)
        mask, memo = self.mask, {(0,) * d: [(key, n) for (key, _), n in zip(terms, nums)]}
        shifts = [[self.var_shift[(b, i)] for b in p.blocks() if (b, i) in self.var_shift]
                  for i in range(1, d + 1)]

        def at(r: tuple[int, ...]) -> list[tuple[int, int]]:
            out = memo.get(r)
            if out is None:
                i = max(n for n in range(d) if r[n])
                acc: dict[int, int] = {}
                for key, num in at(r[:i] + (r[i] - 1,) + r[i + 1 :]):
                    for shift in shifts[i]:
                        e = (key >> shift) & mask
                        if e:
                            k = key - (1 << shift)
                            acc[k] = acc.get(k, 0) + num * e
                out = memo[r] = [(k, v) for k, v in acc.items() if v]
            return out

        return at, den

    def unpack(self, total: dict[int, int], den: int, order: int | None, dim: int) -> Poly:
        """The polynomial ``sum key * numerator / den``, cut above hbar^order."""
        mask, bits = self.mask, self.coeff_bits
        coeff_mask = (1 << bits) - 1
        grouped: dict[int, list[tuple[int, int]]] = {}
        for key, num in total.items():
            if num and (order is None or key & mask <= order):
                terms = grouped.get(key >> bits)
                if terms is None:
                    terms = grouped[key >> bits] = []
                terms.append((key & coeff_mask, num))
        return Poly._raw(dim, {
            VarMonomial._raw(self._fields(vk, self.variables)): self.coeff_element(terms, den)
            for vk, terms in grouped.items()
        })

    def coeff_element(self, terms: Iterable[tuple[int, int]], den: int) -> CoeffElement:
        """The coefficient ``sum key * numerator / den`` over packed coefficient keys."""
        monos, out = self._monomials, {}
        for key, num in terms:
            if num:
                mono = monos.get(key)
                if mono is None:
                    symbols = self._fields(key >> self.width, self.symbols)
                    mono = monos[key] = CoeffMonomial._raw(key & self.mask, symbols)
                out[mono] = num // den if num % den == 0 else Fraction(num, den)
        return CoeffElement._raw(out)

    def _fields(self, packed: int, names: list) -> tuple:
        """The nonzero fields of ``packed`` as sorted (name, exponent) items."""
        items = []
        for name in names:
            if not packed:
                break
            if packed & self.mask:
                items.append((name, packed & self.mask))
            packed >>= self.width
        return tuple(items)


def _moyal_weights(cells: list, packing: _Packing, kmax: int, d: int, alive: Sequence):
    """Weights ``W(r)`` as packed integer terms over the returned denominator.

    A cell ``(a, i, b, j, K_ij)`` with ``a < b`` links ``x_i`` of factor
    ``a`` to ``x_j`` of factor ``b``.  ``W(r)`` sums
    ``hbar^|M| prod K^M / M!`` over the multiplicity maps ``M`` on the
    ``cells`` with ``|M| <= kmax``, where ``r[a]`` is the derivative
    multi-index that ``M`` puts on factor ``a``.  Every node of the walk is
    one ``M``.  ``alive[a](r[a])`` is false once ``D^r[a]`` kills factor
    ``a``, and then it is false at every larger ``r[a]``, so the walk stops
    growing a cell there.  With ``scale`` the common denominator of the
    entries, each ``M`` is brought to the common denominator
    ``kmax! * scale^kmax`` by its spare budget ``kmax - |M|``.
    :func:`_moyal_sum` passes the cells of one factor pair,
    :func:`change_propagator` those of every pair.
    """
    scaled, scale = packing.scaled([e for *_, e in cells], 1)
    top, product = math.factorial(kmax), packing.product
    weights: dict[tuple, dict[int, int]] = {}

    def walk(start: int, budget: int, w: dict, fact: int, orders: tuple) -> None:
        acc, factor = weights.setdefault(orders, {}), top // fact * scale**budget
        for k, n in w.items():
            acc[k] = acc.get(k, 0) + n * factor
        for t in range(start, len(cells)):
            a, i, b, j, _ = cells[t]
            wm, fm, ra, rb = w, fact, orders[a], orders[b]
            for m in range(1, budget + 1):
                ra = ra[:i] + (ra[i] + 1,) + ra[i + 1 :]
                rb = rb[:j] + (rb[j] + 1,) + rb[j + 1 :]
                if not alive[a](ra) or not alive[b](rb):
                    break
                wm = product(wm.items(), scaled[t], {})
                fm *= m
                walk(t + 1, budget - m, wm, fm,
                     orders[:a] + (ra,) + orders[a + 1 : b] + (rb,) + orders[b + 1 :])

    walk(0, kmax, {0: 1}, 1, tuple((0,) * d for _ in alive))
    return weights, top * scale**kmax


def _moyal_sum(left: Poly, right: Poly, K: PropagatorMatrix, order: int | None) -> Poly:
    """The closed-form product of two block groups.

    Sums ``hbar^|M| prod_ij K_ij^M_ij / M_ij! * D^r left * D^c right`` over
    the non-negative integer matrices ``M`` on the nonzero cells of ``K``,
    where ``r`` and ``c`` are the row and column sums of ``M`` and ``D_i``
    is the derivative in ``x_i`` summed over one side's blocks.  Monomials
    are packed integers (:class:`_Packing`) and coefficients are integer
    numerators over one common denominator; one ``Fraction`` is built per
    output term.
    """
    d = K.dim
    cells = [(0, i, 1, j, e) for i, row in enumerate(K.entries) for j, e in enumerate(row) if e]
    # |M| derivatives fall on each side, so the smaller total degree bounds it.
    kmax = min(left.total_degree(), right.total_degree()) if cells else 0
    if order is not None:
        kmax = min(kmax, order)
    packing = _Packing([e for *_, e in cells], kmax, (left, right))
    (left_at, left_den), (right_at, right_den) = (packing.derivatives(p, d) for p in (left, right))
    weights, weight_den = _moyal_weights(cells, packing, kmax, d, (left_at, right_at))

    # Sum over r first, A_c = sum_r W(r, c) * D^r left, then add A_c * D^c right.
    absorbed: dict[tuple[int, ...], dict[int, int]] = {}
    for (rs, cs), w in weights.items():
        packing.product(w.items(), left_at(rs), absorbed.setdefault(cs, {}))
    total: dict[int, int] = {}
    for cs, acc in absorbed.items():
        packing.product(acc.items(), right_at(cs), total)
    return packing.unpack(total, left_den * right_den * weight_den, order, left.dim)


def star_tensor(
    left: Poly, right: Poly, K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of two block groups, keeping all blocks separate."""
    _check_order(order)
    _check_dims(K, left, right)
    overlap = left.blocks() & right.blocks()
    if overlap:
        raise ValueError(f"overlapping block tags between factors: {sorted(overlap)}")
    return _moyal_sum(left, right, K, order)


def star2(f: Poly, g: Poly, K: PropagatorMatrix, order: int | None = None) -> Poly:
    """Star product of two ordinary polynomials on the same variables."""
    _check_ordinary(f, g)
    _check_order(order)
    _check_dims(K, f, g)
    return _moyal_sum(f, g, K, order)


def star_multi(
    factors: Sequence[Poly], K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of several ordinary factors: :func:`star2` folded left.

    Truncating each partial product at ``order`` is exact, because the
    product never lowers a term's hbar degree.  The graph sum
    :func:`starwick.graphs.star_via_graphs` computes the same product by
    an independent route and is the oracle this fold is tested against.
    """
    factors = _check_factors(factors, K, order)
    result = factors[0]
    if order is not None:
        result = result.truncate_hbar(order)
    for f in factors[1:]:
        result = star2(result, f, K, order)
    return result


def poisson_bracket(f: Poly, g: Poly, K: PropagatorMatrix) -> Poly:
    """Antisymmetrized first-order part ``sum_{i!=j} (K_ij - K_ji) d_i f d_j g``."""
    _check_ordinary(f, g)
    _check_dims(K, f, g)
    acc = Poly.zero(f.dim)
    for i in range(1, K.dim + 1):
        dfi = f.derivative(i)
        if dfi.is_zero():
            continue
        for j in range(1, K.dim + 1):
            if i == j:
                continue
            c = K.entries[i - 1][j - 1] - K.entries[j - 1][i - 1]
            if c.is_zero():
                continue
            dgj = g.derivative(j)
            if dgj.is_zero():
                continue
            acc = acc + (dfi * dgj) * c
    return acc


@dataclass(frozen=True)
class PropagatorChangeTerm:
    """One term of a propagator-change expansion.

    ``orders[i]`` is the derivative multi-index applied to factor ``i``;
    ``coeff`` collects the hbar power, the ``1/k!`` weight and the
    products of entry differences picked along the way.
    """

    coeff: CoeffElement
    orders: tuple[tuple[int, ...], ...]


def change_propagator(
    factors: Sequence[Poly],
    old: PropagatorMatrix,
    new: PropagatorMatrix,
    order: int | None = None,
) -> list[PropagatorChangeTerm]:
    """Rewrite a star product over ``old`` as star products over ``new``.

    Returns terms such that summing ``coeff`` times the ``new``-product of
    the per-factor derivatives reproduces ``star_multi(factors, old)``
    exactly; see :func:`reexpand`.  Terms whose derivatives annihilate a
    factor are dropped.

    The coefficients are the weights of :func:`star2`'s walk
    (:func:`_moyal_weights`) over every factor pair with ``old - new`` as the
    matrix, sorted by total order, then by ``orders``.  The tests'
    ``change_propagator_oracle`` builds them one hbar layer at a time.
    """
    factors = _check_factors(factors, old, order)
    if old.dim != new.dim:
        raise ValueError("propagator matrices must share a dimension")
    diff, m = old - new, len(factors)
    cells = [(a, i, b, j, e) for a in range(m) for b in range(a + 1, m)
             for i, row in enumerate(diff.entries) for j, e in enumerate(row) if e]
    # Each factor pair takes one derivative per side, so half the total degree bounds |M|.
    kmax = sum(f.total_degree() for f in factors) // 2
    if order is not None:
        kmax = min(kmax, order)
    packing = _Packing([e for *_, e in cells], kmax, factors)
    alive = [packing.derivatives(f, old.dim)[0] for f in factors]
    weights, den = _moyal_weights(cells, packing, kmax, old.dim, alive)
    terms = [PropagatorChangeTerm(coeff, orders) for orders, w in weights.items()
             if (coeff := packing.coeff_element(w.items(), den))]
    return sorted(terms, key=lambda t: (sum(map(sum, t.orders)), t.orders))


def reexpand(
    terms: Sequence[PropagatorChangeTerm],
    factors: Sequence[Poly],
    K: PropagatorMatrix,
    order: int | None = None,
) -> Poly:
    """Evaluate a propagator-change expansion with star products over ``K``.

    Every term must carry exactly one length-``dim`` multi-index per factor.
    """
    factors = _check_factors(factors, K, order)
    d = K.dim
    if any(len(t.orders) != len(factors) or any(len(o) != d for o in t.orders) for t in terms):
        raise ValueError(f"each term needs one length-{d} multi-index per factor")
    total = Poly.zero(d)
    for term in terms:
        k = sum(sum(o) for o in term.orders) // 2
        derived = [f.derivative_multi(alpha) for f, alpha in zip(factors, term.orders)]
        if any(g.is_zero() for g in derived):
            continue
        inner = None if order is None else max(order - k, 0)
        total = total + star_multi(derived, K, inner) * term.coeff
    if order is not None:
        total = total.truncate_hbar(order)
    return total
