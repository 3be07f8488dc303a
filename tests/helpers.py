"""Shared generators and small brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from starwick import (
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorChangeTerm,
    PropagatorMatrix,
    PropagatorSymbol,
    VarMonomial,
    apply_bivector,
    enumerate_adjacency_by_degree,
    enumerate_adjacency_by_rowsums,
    graph_from_matrix,
    kontsevich_apply,
    multinomial,
)


def _vm_cmp(a: VarMonomial, b: VarMonomial) -> int:
    """Graded lexicographic comparison (earlier variable with higher power wins).

    The oracle for the canonical variable order: ``Poly.sorted_terms`` must
    list monomials as sorting with this comparator in reverse does.
    """
    da, db = a.degree(), b.degree()
    if da != db:
        return -1 if da < db else 1
    for (ka, ea), (kb, eb) in zip(a.items, b.items):
        if ka != kb:
            return 1 if ka < kb else -1
        if ea != eb:
            return 1 if ea > eb else -1
    la, lb = len(a.items), len(b.items)
    if la != lb:
        return -1 if la < lb else 1
    return 0


def rand_rational(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_poly(
    rng: random.Random,
    dim: int,
    max_degree: int = 3,
    terms: int = 3,
    block: int = 0,
) -> Poly:
    out = Poly.zero(dim)
    for _ in range(terms):
        piece = Poly.constant(rand_rational(rng), dim)
        for _ in range(rng.randint(0, max_degree)):
            piece = piece * Poly.variable(rng.randint(1, dim), dim, block=block)
        out = out + piece
    return out


def rand_matrix(
    rng: random.Random, dim: int, symmetric: bool = False
) -> PropagatorMatrix:
    rows = [[rand_rational(rng) for _ in range(dim)] for _ in range(dim)]
    if symmetric:
        for i in range(dim):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return PropagatorMatrix.from_entries(rows)


def rand_entry(rng: random.Random, i: int, j: int, hbar: bool = True) -> CoeffElement | Fraction:
    """A rational, zero, negative or multi-term entry; with ``hbar`` the
    multi-term kind carries an ``hbar`` term too."""
    kind = rng.randrange(4)
    if kind == 0:
        return rand_rational(rng)
    if kind == 1:
        return Fraction(0)
    if kind == 2:
        return -Fraction(rng.randint(1, 3), rng.randint(1, 3))
    entry = CoeffElement.from_symbol(PropagatorSymbol("P", i, j)) * rand_rational(rng)
    if hbar:
        carried = CoeffElement.hbar() * CoeffElement.from_symbol(PropagatorSymbol("P", j, i))
        entry = entry + carried * Fraction(-2, 3)
    return entry + Fraction(1, 2)


def rand_asymmetric_matrix(rng: random.Random, dim: int) -> PropagatorMatrix:
    """Random matrix guaranteed to have entry(1,2) != entry(2,1)."""
    while True:
        m = rand_matrix(rng, dim)
        if m.entry(1, 2) != m.entry(2, 1):
            return m


def all_pairings(items: list) -> list[list[tuple]]:
    """Every partition of the items into unordered pairs."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for pick in range(len(rest)):
        pair = (first, rest[pick])
        for sub in all_pairings(rest[:pick] + rest[pick + 1 :]):
            out.append([pair] + sub)
    return out


def kan_moment(n, S) -> Fraction:
    """``E[prod_i x_i^n_i]`` for a centred Gaussian vector with covariance ``S``.

    Kan's formula (R. Kan, J. Multivariate Anal. 2008), exact over
    ``Fraction``: the sum over ``0 <= v <= n`` of
    ``(-1)^|v| prod_i C(n_i, v_i) (h^T S h / 2)^(s/2) / (s/2)!`` with
    ``h = n/2 - v`` and ``s = |n|``.  It is a polynomial identity in the
    entries of a symmetric ``S``, so ``S`` need not be a covariance.  It
    shares no code with the adjacency-matrix enumeration, which makes it
    an independent oracle for ``expectation_formula``: on a zero diagonal
    it equals ``prod_i n_i!`` times that sum.
    """
    s = sum(n)
    if s % 2:
        return Fraction(0)
    d = len(n)
    total = Fraction(0)
    for v in itertools.product(*(range(k + 1) for k in n)):
        h = [Fraction(k, 2) - vk for k, vk in zip(n, v)]
        quad = sum(h[a] * S[a][b] * h[b] for a in range(d) for b in range(d)) / 2
        weight = math.prod(math.comb(k, vk) for k, vk in zip(n, v))
        total += (-1) ** sum(v) * weight * quad ** (s // 2) / math.factorial(s // 2)
    return total


def expectation_by_matrices(spec) -> CoeffElement:
    """The Isserlis sum one adjacency matrix at a time, in ``CoeffElement``
    arithmetic: ``prod_{i<j} K_ij^{m_ij} / m_ij!`` summed over
    ``enumerate_adjacency_by_rowsums(spec.powers)``, ``K`` the product
    propagator.  The per-matrix oracle for ``expectation_formula``, which
    folds row states on packed terms and sums a shared suffix once.
    """
    total = CoeffElement.zero()
    for matrix in enumerate_adjacency_by_rowsums(spec.powers):
        term = CoeffElement.one()
        for i, j, m in matrix.upper_items():
            term = term * spec.product.entry(i, j) ** m * Fraction(1, math.factorial(m))
        total = total + term
    return total


def star_tensor_oracle(left: Poly, right: Poly, K: PropagatorMatrix, order=None) -> Poly:
    """Independent oracle for ``star.star_tensor``.

    Applies the truncated exponential of ``D = sum_ij K_ij d_i(left) d_j(right)``
    to the tensor ``left * right`` by iteration: term ``k`` is ``hbar^k / k!``
    times ``k`` nested ``apply_bivector`` calls.  ``star2(f, g)`` is this
    product with ``g`` moved to block 1, then merged back onto block 0.
    """
    lb, rb = left.blocks(), right.blocks()
    cur = left * right
    result = cur
    k = 0
    while not cur.is_zero():
        k += 1
        if order is not None and k > order:
            break
        cur = apply_bivector(cur, K, lb, rb)
        cur = cur * CoeffElement({CoeffMonomial(hbar=1): Fraction(1, k)})
        result = result + cur
    if order is not None:
        result = result.truncate_hbar(order)
    return result


def functional_star_oracle(f: Poly, g: Poly, rule, grid, order=None, absolute=False):
    """Independent oracle for ``fields.functional_star``.

    Builds the same two-block integrand through ``star_tensor_oracle``,
    then walks it through the generic ``Poly.evaluate`` once per node
    pair, with the kernel cross-sampled at ``K(s_i, t_j)`` and the field
    read at ``s`` in block 0 and at ``t`` in every other block.  The
    weights are used as given, so the caller passes them in the grid's
    number type.  With ``absolute`` every coefficient, sample, hbar and
    weight enters by its absolute value, which gives the sum of the
    absolute summands: the scale of a float tolerance.
    """
    K = PropagatorMatrix.family("K", f.dim)
    symbolic = star_tensor_oracle(f, g.relabel_blocks({0: 1}), K, order)
    mag = abs if absolute else (lambda v: v)
    if absolute:
        symbolic = Poly(
            symbolic.dim,
            {vm: CoeffElement({m: abs(q) for m, q in ce.items()}) for vm, ce in symbolic.items()},
        )
    node_indices = [tuple(grid.index(lbl) for lbl in node) for node in rule.nodes]
    total = 0
    for ia, wa in zip(node_indices, rule.weights):
        for ib, wb in zip(node_indices, rule.weights):

            def sym_value(sym):
                return mag(grid.kernel[ia[sym.row - 1]][ib[sym.col - 1]])

            def var_value(block, index):
                at = ia if block == 0 else ib
                return mag(grid.field[at[index - 1]])

            value = symbolic.evaluate(var_value, sym_value, mag(grid.hbar))
            total = total + mag(wa) * mag(wb) * value
    return float(total) if grid.mode == "float" else Fraction(total)


def derivative_supports(f: Poly) -> set[tuple[int, ...]]:
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


def graph_sum_oracle(factors, K: PropagatorMatrix, order=None) -> Poly:
    """The graph sum spelled out graph by graph.

    ``sum_k hbar^k / k! * sum_M multinomial(k, M) * kontsevich_apply(M)``
    over every adjacency matrix ``M`` of degree ``2k`` on the factors, with
    no pruning and each graph's operator applied from the block tensor.
    """
    factors = list(factors)
    kmax = sum(f.total_degree() for f in factors) // 2
    if order is not None:
        kmax = min(kmax, order)
    total = Poly.zero(factors[0].dim)
    for k in range(kmax + 1):
        weight = CoeffElement.hbar(k) * Fraction(1, math.factorial(k))
        for matrix in enumerate_adjacency_by_degree(len(factors), 2 * k):
            image = kontsevich_apply(graph_from_matrix(matrix), factors, K)
            total = total + image * (weight * multinomial(k, matrix.upper_values()))
    return total if order is None else total.truncate_hbar(order)


def change_propagator_oracle(factors, old: PropagatorMatrix, new: PropagatorMatrix, order=None):
    """Independent oracle for ``star.change_propagator``.

    Builds the exponential of ``sum_{a<b} sum_ij (old - new)_ij d_i(a) d_j(b)``
    one hbar layer at a time on ``CoeffElement`` arithmetic: layer ``k``
    applies one more cell to every term of layer ``k - 1`` with weight
    ``hbar / k``, and keeps a bumped multi-index only while it stays in
    the factor's derivative support (:func:`derivative_supports`).  It
    shares neither the packed weight walk nor its exponent-dominance test.
    """
    d, m = old.dim, len(factors)
    diff = [[old.entries[i][j] - new.entries[i][j] for j in range(d)] for i in range(d)]
    supports = [derivative_supports(f) for f in factors]
    start = tuple((0,) * d for _ in range(m))
    collected = {start: CoeffElement.one()}
    current = dict(collected)
    k = 0
    while current:
        k += 1
        if order is not None and k > order:
            break
        step = CoeffElement({CoeffMonomial(hbar=1): Fraction(1, k)})
        nxt = {}
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
                            total = nxt.get(key, CoeffElement.zero()) + scaled * entry
                            if total.is_zero():
                                nxt.pop(key, None)
                            else:
                                nxt[key] = total
        current = nxt
        collected.update(nxt)
    ordered = sorted(collected.items(), key=lambda kv: (sum(map(sum, kv[0])), kv[0]))
    return [PropagatorChangeTerm(coeff, orders) for orders, coeff in ordered]
