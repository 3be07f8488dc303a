"""Star products generated by a matrix of abstract propagator coefficients.

The product of two block groups is the closed-form sum

    f * g = sum_M hbar^|M| prod_ij K_ij^M_ij / M_ij! * D^r f * D^c g

over the ``d x d`` non-negative integer matrices ``M``, where ``r`` and
``c`` are the row and column sums of ``M`` and ``D_i`` differentiates in
``x_i`` over one factor's blocks.  It is the exponential of the cross
operator ``sum_ij K_ij d_i(f) d_j(g)`` written out index by index.  The
product is associative, so every star product here is one fold,
:func:`_moyal_fold`: the pairwise product folded left over the factors,
carried as packed terms from the first factor to the last and cut at
``hbar^order`` after each step.  :func:`star_multi` and
:func:`star_tensor` decode its result once, and :func:`star2` is the
two-factor :func:`star_multi`.  The graph sum
:func:`starwick.graphs.star_via_graphs`, which adds one internal vertex
at a time through :func:`apply_bivector`, is the independent oracle for
this fold.

Changing the propagator from ``K`` to ``K'`` is the same exponential over
every pair of factors ``a < b``, with ``K - K'`` as the matrix.  One walk
over the cell multiplicities, :func:`_moyal_weights`, yields the weights
of both, so it serves each step of the fold and :func:`change_propagator`,
both on the one packing of their factors (:func:`_packed`).
:func:`reexpand` folds each term's derived factors on the packing of the
factors they come from.

Every entry point to these products, here and in :mod:`starwick.graphs`
and :mod:`starwick.wick`, checks its arguments once by one contract:
:func:`_check_shape` refuses a negative ``order``, an empty factor list
and a polynomial not in ``K``'s dimension, and :func:`_check_factors`
adds that every factor is ordinary (single-block).  Only the block-group
products, :func:`star_tensor` and :func:`apply_bivector`, take the shape
check alone.

That walk and :func:`starwick.wick.expectation_formula` share one packed
format, :class:`_Packing`, whose one sizing rule is that the products of
``polys`` with ``k`` entries have no exponent above the sum of each
poly's total degree or widest coefficient plus ``k`` times one more than
the widest entry.  One reader, :meth:`_Packing._fields`, reads a packed
key's nonzero fields, lowest first.  Values, the ``Poly`` of a product
and the ``CoeffElement`` of a sum, go through :meth:`_Packing.unpack` and
:meth:`_Packing.coeff_element`; text goes through the one writer,
:meth:`_Packing.text`, which writes a packed sum as canonical text with
no value built, its terms grouped by variable monomial in
:meth:`Poly.sorted_terms`'s order.  The ``star`` command
prints :func:`_star_text`, which writes the fold's product with that
writer, so no product of the fold is decoded.
:func:`starwick.wick.expectation_oracle` decodes only the constant
``hbar^m`` coefficient of its fold.  Each step of the fold is refused
above ``_MAX_PRODUCT_TERMS`` packed terms.

For polynomial inputs every series terminates, so ``order=None`` means
"run to termination" and yields the exact product; an explicit order
keeps all hbar degrees up to it, exactly.
"""

from __future__ import annotations

import math
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
    _Value,
    _as_element,
    _render_terms,
)


class PropagatorMatrix(_Value):
    """Square grid of coefficient-algebra entries driving a star product.

    Two matrices with equal entries are equal.  Symmetry is a property of
    the symbols, not a label on the matrix: :meth:`family` with
    ``symmetric=True`` (and ``--sym`` in the parser) writes ``K[F;j,i]`` as
    ``K[F;i,j]``, and the engines read the entries as given.
    """

    dim: int
    entries: tuple[tuple[CoeffElement, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entry grid must be dim x dim")

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
        on the nose.  With ``parse(..., symmetric_families)`` this is where
        symmetry changes a symbol; the matrix itself carries no such label.
        A family of more than 10^6 entries is refused before any is built.
        """
        if dim > 1000:
            raise ValueError(f"a {dim}x{dim} family exceeds the budget of 1000000 entries")
        rows = []
        for i in range(1, dim + 1):
            row = []
            for j in range(1, dim + 1):
                if zero_diagonal and i == j:
                    row.append(CoeffElement.zero())
                    continue
                a, b = (min(i, j), max(i, j)) if symmetric else (i, j)
                # One symbol to the first power: valid without CoeffMonomial's checks.
                mono = CoeffMonomial._raw(0, ((PropagatorSymbol(name, a, b), 1),))
                row.append(CoeffElement._raw({mono: 1}))
            rows.append(tuple(row))
        return cls(dim, tuple(rows))

    @classmethod
    def from_entries(
        cls, entries: Iterable[Iterable[CoeffElement | RationalLike]]
    ) -> "PropagatorMatrix":
        rows = tuple(tuple(_as_element(v) for v in row) for row in entries)
        return cls(len(rows), rows)

    @classmethod
    def zero(cls, dim: int) -> "PropagatorMatrix":
        z = CoeffElement.zero()
        return cls(dim, tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

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
        return PropagatorMatrix(self.dim, rows)

    def has_zero_diagonal(self) -> bool:
        return all(self.entries[i][i].is_zero() for i in range(self.dim))


def _check_shape(
    polys: Iterable[Poly], K: PropagatorMatrix, order: int | None = None
) -> list[Poly]:
    """``polys`` as a list, refused unless ``order`` is ``None`` or
    non-negative, the list is nonempty and every poly has ``K``'s dimension."""
    if order is not None and order < 0:
        raise ValueError("truncation order must be non-negative")
    polys = list(polys)
    if not polys:
        raise ValueError("at least one factor is required")
    for p in polys:
        if p.dim != K.dim:
            raise ValueError(f"dimension mismatch: polynomial in {p.dim} variables, matrix {K.dim}")
    return polys


def _check_factors(
    factors: Iterable[Poly], K: PropagatorMatrix, order: int | None = None
) -> list[Poly]:
    """:func:`_check_shape`, and every factor refused unless ordinary (single-block)."""
    factors = _check_shape(factors, K, order)
    if any(not p.blocks() <= {0} for p in factors):
        raise ValueError("expected an ordinary (single-block) polynomial")
    return factors


def apply_bivector(
    p: Poly, K: PropagatorMatrix, left_blocks: Iterable[int], right_blocks: Iterable[int]
) -> Poly:
    """One application of ``sum_ij K_ij d_i(left) d_j(right)``.

    ``d_i(left)`` is the derivative in ``x_i`` summed over the left blocks,
    and likewise on the right; the terms are summed in place.
    """
    _check_shape((p,), K)
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
    one multiply-and-collect loop on such terms.  :meth:`_fields` is the
    one reader of packed fields, a key's nonzero fields by shift and mask.
    :meth:`unpack` and :meth:`coeff_element` build values from it, for
    callers that need values; :meth:`text` is the one writer, which writes
    a packed sum as canonical text with no value built.

    The order rule for coefficients: keys of one degree and hbar sort
    lexicographically over their symbol fields, first symbol first, each
    exponent ``e`` read as ``(e - 1) & mask``, so positive ones ascend and
    zero comes last.  Such keys have equal symbol totals, so a key with a
    zero where another has a positive exponent still has a later nonzero
    field and sorts after it.  Variable groups sort the other way, as
    :meth:`Poly.sorted_terms` does: degree descending, then the variable
    fields lexicographically, first variable first, each exponent read as
    itself and the larger first.
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

    def pack(self, p: Poly) -> tuple[list[tuple[int, int]], int]:
        """``p`` as packed ``(key, numerator)`` terms and their common denominator."""
        terms = [(sum(e << self.var_shift[v] for v, e in vm.items) + self.coeff_key(m), q)
                 for vm, ce in p.items() for m, q in ce.items()]
        nums, den = _common_denominator(q for _, q in terms)
        return [(key, n) for (key, _), n in zip(terms, nums)], den

    def derivatives(self, terms: list[tuple[int, int]], d: int):
        """Lazy map ``r -> D^r`` on packed terms, each entry derived once;
        the indices ``i - 1`` of the variables ``x_i`` the terms hold, in
        some block; and their total degree.

        ``D_i`` lowers the field of ``x_i`` in every block.  A term's degree
        is its variable field modulo ``mask``, read as ``mask`` when that is
        0 and the field is not, as in :meth:`text`.
        """
        mask, bits, memo = self.mask, self.coeff_bits, {(0,) * d: terms}
        shifts = [[s for (_, v), s in self.var_shift.items()
                   if v == i and any(key >> s & mask for key, _ in terms)] for i in range(1, d + 1)]

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

        return at, {i for i in range(d) if shifts[i]}, max(
            (((key >> bits) - 1) % mask + 1 for key, _ in terms if key >> bits), default=0)

    def unpack(self, terms: Iterable[tuple[int, int]], den: int, dim: int) -> Poly:
        """The polynomial ``sum key * numerator / den`` as a value;
        :meth:`text` writes the same sum's text without it."""
        grouped, variables = self._grouped(terms), self.variables
        return Poly._raw(dim, {
            VarMonomial._raw(tuple([(variables[n], e) for n, e in self._fields(group)])): ce
            for group, ce in zip(grouped, self._elements(grouped.values(), den))})

    def _grouped(self, terms: Iterable[tuple[int, int]]) -> dict[int, list]:
        """The nonzero terms as ``(coefficient key, numerator)`` lists, keyed
        by their variable field."""
        bits = self.coeff_bits
        low, grouped = (1 << bits) - 1, {}
        for key, num in terms:
            if num:
                rows = grouped.get(key >> bits)
                if rows is None:
                    rows = grouped[key >> bits] = []
                rows.append((key & low, num))
        return grouped

    def coeff_element(self, terms: Iterable[tuple[int, int]], den: int) -> CoeffElement:
        """The coefficient ``sum key * numerator / den`` over packed coefficient keys."""
        return self._elements([[(key, num) for key, num in terms if num]], den)[0]

    def _elements(self, groups: Iterable[list[tuple[int, int]]], den: int) -> list[CoeffElement]:
        """:meth:`coeff_element` of each group of nonzero terms, each new key read once."""
        monos, symbols = self._monomials, self.symbols
        for key in {key for terms in groups for key, _ in terms if key not in monos}:
            monos[key] = CoeffMonomial._raw(key & self.mask, tuple(
                [(symbols[n], e) for n, e in self._fields(key >> self.width)]))
        return [CoeffElement._raw({monos[key]: num // den if num % den == 0 else Fraction(num, den)
                                   for key, num in terms}) for terms in groups]

    def text(self, terms: Iterable[tuple[int, int]], den: int) -> str:
        """``str(self.unpack(terms, den, dim))`` for ``den > 0``,
        written straight from the packed keys with no monomial, element,
        ``Poly`` or ``Fraction`` built; on coefficient keys alone that is
        ``str(self.coeff_element(terms, den))``.

        Terms group by their variable field, and the groups sort as
        :meth:`Poly.sorted_terms` does: degree descending, then the variable
        fields lexicographically, first variable first, larger exponent
        first.  Coefficient keys sort by degree, hbar and the order rule,
        which is :meth:`CoeffMonomial.sort_key` because keys of one degree
        and hbar have equal symbol totals.  Each distinct coefficient key
        and variable group is read once by :meth:`_fields`, as its rank and
        its text, and each group sorts its rows on the coefficient keys'
        positions."""
        width, mask = self.width, self.mask
        groups = self._grouped(terms)

        def write(key: int, names: Sequence[str], rank: int, offset: int) -> tuple[int, str]:
            """``key``'s rank, ``rank`` plus ``e - offset`` at the place of each
            nonzero field ``e``, first field most significant, and its text
            over the field names ``names``."""
            top, body = width * len(names), ""
            for n, e in self._fields(key):
                rank += e - offset << top - width * (n + 1)
                body += f"*{names[n]}" if e == 1 else f"*{names[n]}^{e}"
            return rank, body

        # The degree, the sum of the fields, is at most mask: it is key
        # modulo mask, read as mask when that is 0 and key is not.  A
        # coefficient field ``e`` ranks as ``(e - 1) & mask``: every field
        # zero reads as mask, and a nonzero one takes ``mask + 1 - e`` off it.
        # Each key sorts as ``(degree, hbar, rank, text, key)``.
        names = ["hbar", *(s.text() for s in self.symbols)]
        coeffs = sorted(((key - 1) % mask + 1 if key else 0, key & mask,
                         *write(key, names, (1 << width * len(names)) - 1, mask + 1), key)
                        for key in {key for rows in groups.values() for key, _ in rows})
        position = {key: n for n, (*_, key) in enumerate(coeffs)}
        # A variable field ranks as its exponent, and the groups sort descending.
        variables = [f"x{i}" if b == 0 else f"x{i}@{b}" for b, i in self.variables]
        entries = []
        for *_, vtext, group in sorted((((group - 1) % mask + 1 if group else 0,
                                         *write(group, variables, 0, 0), group)
                                        for group in groups), reverse=True):
            for n, num in sorted([(position[key], num) for key, num in groups[group]]):
                g = math.gcd(num, den)
                entries.append((num // g, den // g, (coeffs[n][3] + vtext)[1:]))
        return _render_terms(entries)

    def _fields(self, key: int) -> list[tuple[int, int]]:
        """The nonzero fields of ``key`` as ``(index, exponent)`` pairs,
        lowest field first."""
        width, mask, pairs, n = self.width, self.mask, [], 0
        while key:
            if key & mask:
                pairs.append((n, key & mask))
            key >>= width
            n += 1
        return pairs


def _live_cells(held: Sequence[set[int]], degrees: Sequence[int], K: PropagatorMatrix):
    """The cells ``(a, i, b, j, K_ij)``, ``a < b``, on which factors that hold
    the variable indices ``held`` with total ``degrees`` are live, and the
    most cells a product of them can take.

    A cell links ``x_i`` of factor ``a`` to ``x_j`` of factor ``b``; it is live
    when both factors hold their variable, in some block, and any other cell
    kills a factor.  Each cell takes one derivative from each of two
    factors, so the most is at most half the total degree and at most what
    the factors other than the widest one can give.
    """
    cells = [(a, i, b, j, e) for a in range(len(held)) for b in range(a + 1, len(held))
             for i, row in enumerate(K.entries) if i in held[a]
             for j, e in enumerate(row) if e and j in held[b]]
    return cells, min(sum(degrees) // 2, sum(degrees) - max(degrees)) if cells else 0


def _packed(factors: Sequence[Poly], K: PropagatorMatrix,
            order: int | None = None) -> tuple[_Packing, list]:
    """One packing for every product of ``factors`` under ``K``, and each
    factor on it as ``(terms, den)`` (:meth:`_Packing.pack`).

    It is sized by the live cells over every pair of factors and the most
    cells any product of them takes, which bounds each step of
    :func:`_moyal_fold` before its hbar cut, the all-pairs walk of
    :func:`change_propagator`, and the products of derived factors.  A fold
    cut at ``order`` takes fewer: each cell carries one hbar, so a step's
    left side holds at most ``order`` cells and the step adds at most
    ``order`` more, and two factors take one step from no cells.
    """
    cells, kmax = _live_cells([{i - 1 for vm, _ in f.items() for (_, i), _ in vm.items}
                               for f in factors], [f.total_degree() for f in factors], K)
    if order is not None:
        kmax = min(kmax, order if len(factors) == 2 else 2 * order)
    packing = _Packing([e for *_, e in cells], kmax, factors)
    return packing, [packing.pack(f) for f in factors]


def _moyal_weights(packing: _Packing, factors: Sequence[tuple[list, int]], K: PropagatorMatrix,
                   order: int | None):
    """The Moyal walk over every pair of ``factors``, each ``(terms, den)``
    on ``packing``, with ``K`` as the matrix.

    Returns the packing, each factor's lazy derivative map ``r -> D^r f``
    (:meth:`_Packing.derivatives`) and the weights ``W(r)`` as packed
    integer terms over the returned denominator.  ``W(r)`` sums
    ``hbar^|M| prod K^M / M!`` over the multiplicity maps ``M`` on the live
    cells (:func:`_live_cells`) with ``|M| <= kmax``, where ``r[a]`` is the
    derivative multi-index that ``M`` puts on factor ``a`` and ``kmax`` is
    the most cells the factors take, cut further by ``order``.  Every node
    of the walk is one ``M``.  Once ``D^r[a]`` kills factor ``a`` it kills
    it at every larger ``r[a]``, so the walk stops growing a cell there.
    With ``scale`` the common denominator of the entries, each ``M`` is
    brought to the common denominator ``kmax! * scale^kmax`` by its spare
    budget ``kmax - |M|``.
    """
    alive, held, degrees = zip(*(packing.derivatives(terms, K.dim) for terms, _ in factors))
    cells, kmax = _live_cells(held, degrees, K)
    if order is not None:
        kmax = min(kmax, order)
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

    walk(0, kmax, {0: 1}, 1, tuple((0,) * K.dim for _ in factors))
    return packing, alive, weights, top * scale**kmax


# The most terms one step of the packed fold may hold, summed over its
# partial sums on the left side's derivatives or in its total, checked once
# per absorbed block.  ``star --dim 3`` on ``(x1+x2+x3)^10`` twice holds
# 352,716 and then 856,596 terms and answers; on ``^12`` the partial sums
# reach 1,352,078 and the total would reach 3.47 million.
_MAX_PRODUCT_TERMS = 10**6


def _moyal_fold(packing: _Packing, factors: Sequence[tuple[list, int]], K: PropagatorMatrix,
                order: int | None, rooms: Sequence[int] | None = None,
                ) -> tuple[_Packing, list[tuple[int, int]], int]:
    """The star product of ``factors``, each ``(terms, den)`` on ``packing``,
    as ``(packing, terms, den)``: the closed-form product of two block
    groups folded left, the product carried packed from the first factor to
    the last.

    Each step sums ``hbar^|M| prod_ij K_ij^M_ij / M_ij! * D^r left * D^c
    right`` over the non-negative integer matrices ``M`` on the live cells
    of ``K``, where ``r`` and ``c`` are the row and column sums of ``M`` and
    ``D_i`` is the derivative in ``x_i`` summed over one side's blocks.  The
    first factor and each step's product are cut above ``hbar^order``,
    which is exact because a product never lowers an hbar degree.  Given
    ``rooms``, one int per step, step ``k`` then also drops each term whose
    variable degree exceeds ``rooms[k]``: a caller that reads only the
    constant term passes the total degree of the factors after the step,
    since each contraction with a later factor takes one degree from each
    side.  Nothing else in the fold or its decoders cuts.  Each step's kept
    numerators and denominator are divided by their common factor, so the
    carried denominator does not grow as the product of every step's.  More
    than ``_MAX_PRODUCT_TERMS`` terms in one step's partial sums or total
    raise ``ValueError``; the packing bounds every key a step reaches
    before its cut (:func:`_packed`).
    """
    def check(size: int) -> None:
        if size > _MAX_PRODUCT_TERMS:
            raise ValueError(f"star product exceeds the budget of {_MAX_PRODUCT_TERMS} terms")

    (terms, den), *rest = factors
    bits, mask = packing.coeff_bits, packing.mask
    terms = [(key, num) for key, num in terms if order is None or key & mask <= order]
    for k, right in enumerate(rest):
        _, (left_at, right_at), weights, weight_den = _moyal_weights(
            packing, ((terms, den), right), K, order)
        # Sum over r first, A_c = sum_r W(r, c) * D^r left, then add A_c * D^c right.
        absorbed: dict[tuple[int, ...], dict[int, int]] = {}
        size = 0
        for (rs, cs), w in weights.items():
            acc = absorbed.setdefault(cs, {})
            before = len(acc)
            check(size := size + len(packing.product(w.items(), left_at(rs), acc)) - before)
        total: dict[int, int] = {}
        for cs in list(absorbed):  # each block freed once it is added
            check(len(packing.product(absorbed.pop(cs).items(), right_at(cs), total)))
        if order is not None:
            for key in [key for key in total if key & mask > order]:
                del total[key]
        if rooms is not None:  # the variable degree, read as _Packing.derivatives reads it
            for key in [key for key in total
                        if key >> bits and ((key >> bits) - 1) % mask + 1 > rooms[k]]:
                del total[key]
        den *= right[1] * weight_den
        g = math.gcd(den, *total.values())
        terms, den = [(key, num // g) for key, num in total.items() if num], den // g
    return packing, terms, den


def star_tensor(
    left: Poly, right: Poly, K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of two block groups, keeping all blocks separate."""
    _check_shape((left, right), K, order)
    if overlap := left.blocks() & right.blocks():
        raise ValueError(f"overlapping block tags between factors: {sorted(overlap)}")
    return _Packing.unpack(*_moyal_fold(*_packed((left, right), K, order), K, order), K.dim)


def star2(f: Poly, g: Poly, K: PropagatorMatrix, order: int | None = None) -> Poly:
    """Star product of two ordinary polynomials on the same variables: the
    two-factor :func:`star_multi`."""
    return star_multi((f, g), K, order)


def star_multi(
    factors: Sequence[Poly], K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of several ordinary factors: the pairwise closed-form
    sum folded left over the factors (:func:`_moyal_fold`), decoded once.

    The factors are checked once, by the argument contract of every star
    product (:func:`_check_factors`).  The graph sum
    :func:`starwick.graphs.star_via_graphs` computes the same product by an
    independent route and is the oracle this fold is tested against.
    """
    factors = _check_factors(factors, K, order)
    return _Packing.unpack(*_moyal_fold(*_packed(factors, K, order), K, order), K.dim)


def _star_text(factors: Sequence[Poly], K: PropagatorMatrix, order: int | None = None) -> str:
    """``str(star_multi(factors, K, order))``, written straight from the
    fold's packed product by :meth:`_Packing.text`."""
    factors = _check_factors(factors, K, order)
    return _Packing.text(*_moyal_fold(*_packed(factors, K, order), K, order))


def poisson_bracket(f: Poly, g: Poly, K: PropagatorMatrix) -> Poly:
    """Antisymmetrized first-order part ``sum_{i!=j} (K_ij - K_ji) d_i f d_j g``."""
    _check_factors((f, g), K)
    acc = Poly.zero(f.dim)
    for i in range(1, K.dim + 1):
        dfi = f.derivative(i)
        if dfi.is_zero():
            continue
        for j in range(1, K.dim + 1):  # K_ii - K_ii is zero and skipped
            c = K.entries[i - 1][j - 1] - K.entries[j - 1][i - 1]
            if c.is_zero():
                continue
            dgj = g.derivative(j)
            if dgj.is_zero():
                continue
            acc = acc + (dfi * dgj) * c
    return acc


class PropagatorChangeTerm(_Value):
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

    The coefficients are the weights of the star products' Moyal walk
    (:func:`_moyal_weights`) over every factor pair with ``old - new`` as
    the matrix, sorted by total order, then by ``orders``.  The tests'
    ``change_propagator_oracle`` builds them one hbar layer at a time.
    """
    factors = _check_factors(factors, old, order)
    if old.dim != new.dim:
        raise ValueError("propagator matrices must share a dimension")
    diff = old - new
    packing, _, weights, den = _moyal_weights(*_packed(factors, diff), diff, order)
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
    Each factor's derivatives come from one memo shared by every term
    (:meth:`_Packing.derivatives`), each term's derived factors are folded
    packed (:func:`_moyal_fold`) on one packing for all terms, and the
    terms are summed in place.  A multi-index with a negative entry is
    refused.
    """
    factors = _check_factors(factors, K, order)
    d = K.dim
    if any(len(t.orders) != len(factors) or any(len(o) != d or min(o) < 0 for o in t.orders)
           for t in terms):
        raise ValueError(f"each term needs one length-{d} multi-index per factor")
    packing, packed = _packed(factors, K)
    derived = [(packing.derivatives(f, d)[0], den) for f, den in packed]
    total = _TermSum()
    for term in terms:
        parts = [(at(tuple(alpha)), den) for (at, den), alpha in zip(derived, term.orders)]
        inner = None if order is None else max(order - sum(map(sum, term.orders)) // 2, 0)
        for vm, ce in _Packing.unpack(*_moyal_fold(packing, parts, K, inner), d).items():
            total.add(vm, ce, term.coeff)
    return total.poly(d) if order is None else total.poly(d).truncate_hbar(order)
