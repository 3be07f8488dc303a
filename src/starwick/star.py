"""Star products generated by a matrix of abstract propagator coefficients.

The product of two block groups applies the truncated exponential of the
cross operator ``D = sum_ij K_ij d_i(x) d_j(y)``: term ``k`` carries
``hbar^k / k!`` times ``k`` nested applications of ``D``.  The product
is associative, so the multi-factor product is the pairwise product
folded left over the factors.  The expansion as a sum over adjacency
matrices lives only in :mod:`starwick.graphs`, which serves as the
independent oracle for this fold.

For polynomial inputs every series terminates, so ``order=None`` means
"run to termination" and yields the exact product; an explicit order
keeps all hbar degrees up to it, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorSymbol,
    RationalLike,
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


def _hbar_over(k: int) -> CoeffElement:
    return CoeffElement({CoeffMonomial(hbar=1): Fraction(1, k)})


def _derivative_over(p: Poly, blocks: Iterable[int], index: int) -> Poly:
    total = Poly.zero(p.dim)
    for block in blocks:
        total = total + p.derivative(index, block=block)
    return total


def apply_bivector(
    p: Poly, K: PropagatorMatrix, left_blocks: Iterable[int], right_blocks: Iterable[int]
) -> Poly:
    """One application of ``sum_ij K_ij d_i(left) d_j(right)``."""
    left = tuple(left_blocks)
    right = tuple(right_blocks)
    acc = Poly.zero(p.dim)
    for j in range(1, K.dim + 1):
        dg = _derivative_over(p, right, j)
        if dg.is_zero():
            continue
        for i in range(1, K.dim + 1):
            e = K.entries[i - 1][j - 1]
            if e.is_zero():
                continue
            df = _derivative_over(dg, left, i)
            if df.is_zero():
                continue
            acc = acc + df * e
    return acc


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


def star_tensor(
    left: Poly, right: Poly, K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of two block groups, keeping all blocks separate."""
    _check_order(order)
    _check_dims(K, left, right)
    lb, rb = left.blocks(), right.blocks()
    overlap = lb & rb
    if overlap:
        raise ValueError(f"overlapping block tags between factors: {sorted(overlap)}")
    cur = left * right
    result = cur
    k = 0
    while not cur.is_zero():
        k += 1
        if order is not None and k > order:
            break
        cur = apply_bivector(cur, K, lb, rb)
        if cur.is_zero():
            break
        cur = cur * _hbar_over(k)
        result = result + cur
    if order is not None:
        result = result.truncate_hbar(order)
    return result


def star2(f: Poly, g: Poly, K: PropagatorMatrix, order: int | None = None) -> Poly:
    """Star product of two ordinary polynomials on the same variables."""
    _check_ordinary(f, g)
    shifted = g.relabel_blocks({0: 1})
    return star_tensor(f, shifted, K, order).merge_blocks()


def star_multi(
    factors: Sequence[Poly], K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product of several ordinary factors: :func:`star2` folded left.

    Truncating each partial product at ``order`` is exact, because the
    product never lowers a term's hbar degree.  The graph sum
    :func:`starwick.graphs.star_via_graphs` computes the same product by
    an independent route and is the oracle this fold is tested against.
    """
    _check_order(order)
    factors = list(factors)
    if not factors:
        raise ValueError("star product needs at least one factor")
    _check_ordinary(*factors)
    _check_dims(K, *factors)
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


def _derivative_supports(f: Poly) -> set[tuple[int, ...]]:
    """Multi-indices whose derivative of ``f`` is nonzero (downward closure)."""
    out: set[tuple[int, ...]] = set()
    d = f.dim
    for vm, _ in f.items():
        dense = [0] * d
        for (_, index), exp in vm.items:
            dense[index - 1] = exp
        stack = [tuple(dense)]
        while stack:
            t = stack.pop()
            if t in out:
                continue
            out.add(t)
            for pos in range(d):
                if t[pos]:
                    lower = list(t)
                    lower[pos] -= 1
                    stack.append(tuple(lower))
    return out


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
    """
    _check_order(order)
    factors = list(factors)
    if not factors:
        raise ValueError("expansion needs at least one factor")
    _check_ordinary(*factors)
    _check_dims(old, *factors)
    if old.dim != new.dim:
        raise ValueError("propagator matrices must share a dimension")
    d = old.dim
    m = len(factors)
    diff = [[old.entries[i][j] - new.entries[i][j] for j in range(d)] for i in range(d)]
    supports = [_derivative_supports(f) for f in factors]
    start = tuple((0,) * d for _ in range(m))
    collected: dict[tuple[tuple[int, ...], ...], CoeffElement] = {start: CoeffElement.one()}
    current = dict(collected)
    k = 0
    while current:
        k += 1
        if order is not None and k > order:
            break
        step = _hbar_over(k)
        nxt: dict[tuple[tuple[int, ...], ...], CoeffElement] = {}
        for orders, coeff in current.items():
            scaled = coeff * step
            for a in range(m):
                for b in range(a + 1, m):
                    for mu in range(d):
                        oa = list(orders[a])
                        oa[mu] += 1
                        bumped_a = tuple(oa)
                        if bumped_a not in supports[a]:
                            continue
                        for nu in range(d):
                            entry = diff[mu][nu]
                            if entry.is_zero():
                                continue
                            ob = list(orders[b])
                            ob[nu] += 1
                            bumped_b = tuple(ob)
                            if bumped_b not in supports[b]:
                                continue
                            key = tuple(
                                bumped_a if idx == a else bumped_b if idx == b else o
                                for idx, o in enumerate(orders)
                            )
                            add = scaled * entry
                            prev = nxt.get(key)
                            total = add if prev is None else prev + add
                            if total.is_zero():
                                nxt.pop(key, None)
                            else:
                                nxt[key] = total
        current = nxt
        collected.update(nxt)
    ordered = sorted(collected.items(), key=lambda kv: (sum(map(sum, kv[0])), kv[0]))
    return [PropagatorChangeTerm(coeff, orders) for orders, coeff in ordered]


def reexpand(
    terms: Sequence[PropagatorChangeTerm],
    factors: Sequence[Poly],
    K: PropagatorMatrix,
    order: int | None = None,
) -> Poly:
    """Evaluate a propagator-change expansion with star products over ``K``."""
    factors = list(factors)
    if not factors:
        raise ValueError("expansion needs at least one factor")
    total = Poly.zero(factors[0].dim)
    for term in terms:
        k = sum(sum(o) for o in term.orders) // 2
        derived = []
        dead = False
        for f, alpha in zip(factors, term.orders):
            g = f.derivative_multi(alpha)
            if g.is_zero():
                dead = True
                break
            derived.append(g)
        if dead:
            continue
        inner = None if order is None else max(order - k, 0)
        total = total + star_multi(derived, K, inner) * term.coeff
    if order is not None:
        total = total.truncate_hbar(order)
    return total
