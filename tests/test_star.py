import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starwick import (
    AdjacencyMatrix,
    BernoulliGraph,
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorChangeTerm,
    PropagatorMatrix,
    PropagatorSymbol,
    VarMonomial,
    apply_bivector,
    change_propagator,
    kontsevich_apply,
    poisson_bracket,
    reexpand,
    star2,
    star_multi,
    star_tensor,
    star_via_graphs,
    wick_theorem_expand,
)

from helpers import (
    all_pairings,
    change_propagator_oracle,
    rand_asymmetric_matrix,
    rand_entry,
    rand_matrix,
    rand_poly,
    rand_rational,
    star_tensor_oracle,
)
import starwick.star
from starwick.star import _Packing, _moyal_fold, _packed, _star_text
from test_algebra import assert_scalar_rule, stored_values


def x(i, d, block=0):
    return Poly.variable(i, d, block=block)


def hbar_times(sym_element):
    return CoeffElement.hbar() * sym_element


def K_sym(i, j, family="K"):
    return CoeffElement.from_symbol(PropagatorSymbol(family, i, j))


class TestPropagatorMatrix:
    def test_family_entries(self):
        K = PropagatorMatrix.family("K", 2)
        assert K.entry(1, 2) == K_sym(1, 2)
        assert K.entry(2, 1) == K_sym(2, 1)

    def test_symmetric_family_normalizes_indices(self):
        K = PropagatorMatrix.family("K", 3, symmetric=True)
        assert K.entry(3, 1) == K.entry(1, 3) == K_sym(1, 3)

    def test_equal_entries_compare_equal(self):
        # A matrix is its entries: no symmetry label tells two of them apart.
        assert PropagatorMatrix.zero(2) == PropagatorMatrix.from_entries([[0, 0], [0, 0]])
        K = PropagatorMatrix.family("K", 2, symmetric=True)
        assert K == PropagatorMatrix.from_entries(K.entries)

    def test_difference(self):
        K = PropagatorMatrix.family("K", 2)
        Kp = PropagatorMatrix.family("P", 2)
        assert (K - Kp).entry(1, 2) == K_sym(1, 2) - K_sym(1, 2, "P")


def oracle_matrices(rng, d):
    yield PropagatorMatrix.family("K", d)
    yield PropagatorMatrix.family("K", d, symmetric=True)
    yield PropagatorMatrix.family("K", d, zero_diagonal=True)
    for _ in range(2):
        yield PropagatorMatrix.from_entries(
            [[rand_entry(rng, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
        )


@pytest.mark.parametrize("order", [None, 0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_closed_form_matches_iterated_oracle(d, order):
    rng = random.Random(7919 * d + (5 if order is None else order))
    # Coefficients carrying symbols and hbar, as partial products of a fold do.
    weight = CoeffElement.one() + hbar_times(K_sym(1, 1, "Q")) * Fraction(3, 2)
    for K in oracle_matrices(rng, d):
        f = rand_poly(rng, d) + rand_poly(rng, d) * weight
        g = rand_poly(rng, d, max_degree=2)
        expected = star_tensor_oracle(f, g.relabel_blocks({0: 1}), K, order).merge_blocks()
        assert star2(f, g, K, order) == expected
        left = rand_poly(rng, d, max_degree=2) * rand_poly(rng, d, max_degree=2, block=2)
        left = left + rand_poly(rng, d, block=2) * weight
        right = rand_poly(rng, d, block=1)
        assert star_tensor(left, right, K, order) == star_tensor_oracle(left, right, K, order)


class TestStarTensor:
    def test_single_pairing(self):
        d = 2
        result = star_tensor(x(1, d, block=0), x(2, d, block=1), PropagatorMatrix.family("K", d))
        expected = x(1, d, block=0) * x(2, d, block=1) + Poly.constant(
            hbar_times(K_sym(1, 2)), d
        )
        assert result == expected

    def test_unit_factor(self):
        d = 2
        f = x(1, d, block=0) ** 2 + x(2, d, block=0)
        assert star_tensor(f, Poly.one(d), PropagatorMatrix.family("K", d)) == f

    def test_three_block_associativity_witness(self):
        d = 1
        K = PropagatorMatrix.family("K", d)
        a, b, c = x(1, d, block=0), x(1, d, block=1), x(1, d, block=2)
        lhs = star_tensor(star_tensor(a, b, K), c, K)
        rhs = star_tensor(a, star_tensor(b, c, K), K)
        assert lhs == rhs

    def test_block_collision_rejected(self):
        d = 1
        with pytest.raises(ValueError, match="block"):
            star_tensor(x(1, d), x(1, d), PropagatorMatrix.family("K", d))


class TestStar2:
    def test_coordinates(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        assert star2(x(1, d), x(2, d), K) == x(1, d) * x(2, d) + Poly.constant(
            hbar_times(K_sym(1, 2)), d
        )

    def test_squares(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        result = star2(x(1, d) ** 2, x(2, d) ** 2, K)
        expected = (
            x(1, d) ** 2 * x(2, d) ** 2
            + x(1, d) * x(2, d) * (hbar_times(K_sym(1, 2)) * 4)
            + Poly.constant(CoeffElement.hbar(2) * K_sym(1, 2) ** 2 * 2, d)
        )
        assert result == expected

    def test_symmetric_matrix_commutes(self):
        rng = random.Random(11)
        for _ in range(25):
            d = rng.randint(1, 3)
            K = rand_matrix(rng, d, symmetric=True)
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            assert star2(f, g, K) == star2(g, f, K)

    def test_asymmetric_matrix_commutator_witness(self):
        rng = random.Random(12)
        for _ in range(10):
            K = rand_asymmetric_matrix(rng, 2)
            d = 2
            gap = star2(x(1, d), x(2, d), K) - star2(x(2, d), x(1, d), K)
            expected = Poly.constant(
                CoeffElement.hbar() * (K.entry(1, 2) - K.entry(2, 1)), d
            )
            assert gap == expected
            assert not gap.is_zero()

    def test_truncation_coherence(self):
        rng = random.Random(13)
        for _ in range(10):
            d = rng.randint(1, 3)
            K = rand_matrix(rng, d)
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            exact = star2(f, g, K)
            for order in range(4):
                truncated = star2(f, g, K, order)
                for k in range(order + 1):
                    assert truncated.hbar_coefficient(k) == exact.hbar_coefficient(k)

    def test_associativity_random(self):
        rng = random.Random(14)
        for _ in range(25):
            d = rng.randint(1, 3)
            K = rand_matrix(rng, d)
            f, g, h = (rand_poly(rng, d) for _ in range(3))
            assert star2(star2(f, g, K, 4), h, K, 4) == star2(f, star2(g, h, K, 4), K, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            star2(x(1, 2), x(1, 2), PropagatorMatrix.family("K", 3))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            star2(x(1, 2), x(2, 2), PropagatorMatrix.family("K", 2), -1)


class TestStarMulti:
    def test_three_coordinates(self):
        d = 3
        K = PropagatorMatrix.family("K", d)
        result = star_multi([x(1, d), x(2, d), x(3, d)], K)
        expected = (
            x(1, d) * x(2, d) * x(3, d)
            + x(3, d) * hbar_times(K_sym(1, 2))
            + x(2, d) * hbar_times(K_sym(1, 3))
            + x(1, d) * hbar_times(K_sym(2, 3))
        )
        assert result == expected

    def test_single_factor(self):
        d = 2
        f = x(1, d) ** 2 + 1
        assert star_multi([f], PropagatorMatrix.family("K", d)) == f

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            star_multi([], PropagatorMatrix.family("K", 2))

    def test_isserlis_constant_part(self):
        d = 4
        K = PropagatorMatrix.family("K", d, symmetric=True)
        result = star_multi([x(i, d) for i in range(1, 5)], K)
        top = result.constant_coeff().hbar_part(2)
        expected = CoeffElement.zero()
        for pairing in all_pairings([1, 2, 3, 4]):
            term = CoeffElement.one()
            for i, j in pairing:
                term = term * K_sym(min(i, j), max(i, j))
            expected = expected + term
        assert top == expected

    def test_equals_iterated_star2_up_to_five_factors(self):
        rng = random.Random(15)
        for m in range(2, 6):
            d = rng.randint(1, 2)
            K = rand_matrix(rng, d)
            fs = [rand_poly(rng, d, max_degree=2, terms=2) for _ in range(m)]
            iterated = fs[0]
            for f in fs[1:]:
                iterated = star2(iterated, f, K)
            assert star_multi(fs, K) == iterated


# Every entry point that takes a list of ordinary factors, as (factors, K, order) -> result.
FACTOR_LIST_ENTRY_POINTS = {
    "star_multi": star_multi,
    "star_via_graphs": star_via_graphs,
    "change_propagator": lambda fs, K, order: change_propagator(
        fs, K, PropagatorMatrix.zero(K.dim), order),
    "wick_theorem_expand": lambda fs, K, order: wick_theorem_expand(
        fs, K, PropagatorMatrix.zero(K.dim), order),
    "reexpand": lambda fs, K, order: reexpand([], fs, K, order),
}

# name -> (factors for a 2 x 2 matrix, order, expected message)
BAD_FACTOR_LISTS = {
    "empty": (lambda: [], None, "at least one factor is required"),
    "block_tagged": (lambda: [x(1, 2, block=1), x(2, 2)], None, "ordinary"),
    "dimension_mismatch": (lambda: [x(1, 3), x(2, 3)], None,
                           r"^dimension mismatch: polynomial in 3 variables, matrix 2$"),
    "dimension_below": (lambda: [x(1, 1), x(1, 1)], None,
                        r"^dimension mismatch: polynomial in 1 variables, matrix 2$"),
    "negative_order": (lambda: [x(1, 2), x(2, 2)], -1, "non-negative"),
}


@pytest.mark.parametrize("case", BAD_FACTOR_LISTS)
@pytest.mark.parametrize("entry", FACTOR_LIST_ENTRY_POINTS)
def test_factor_lists_are_checked_alike(entry, case):
    factors, order, message = BAD_FACTOR_LISTS[case]
    with pytest.raises(ValueError, match=message):
        FACTOR_LIST_ENTRY_POINTS[entry](factors(), PropagatorMatrix.family("K", 2), order)


# The entry points that take two factors (one for apply_bivector), called
# on a list of BAD_FACTOR_LISTS, each with the faults it can take.  star_tensor
# puts the second factor on block 1 and takes block-tagged factors, so a
# tagged list is refused there for overlapping blocks instead.
DIMENSIONS = ("dimension_mismatch", "dimension_below")
PAIR_ENTRY_POINTS = {
    "star2": (lambda fs, K, order: star2(*fs, K, order),
              ("block_tagged", *DIMENSIONS, "negative_order")),
    "star_tensor": (lambda fs, K, order: star_tensor(fs[0], fs[1].relabel_blocks({0: 1}), K, order),
                    (*DIMENSIONS, "negative_order")),
    "poisson_bracket": (lambda fs, K, order: poisson_bracket(*fs, K), ("block_tagged", *DIMENSIONS)),
    "apply_bivector": (lambda fs, K, order: apply_bivector(fs[0], K, (0,), (0,)), DIMENSIONS),
    "kontsevich_apply": (
        lambda fs, K, order: kontsevich_apply(
            BernoulliGraph(2, AdjacencyMatrix.from_rows([[0, 1], [1, 0]])), fs, K),
        ("block_tagged", *DIMENSIONS)),
}


@pytest.mark.parametrize("entry, case", [(entry, case) for entry, (_, cases)
                                         in PAIR_ENTRY_POINTS.items() for case in cases])
def test_pair_entry_points_are_checked_alike(entry, case):
    factors, order, message = BAD_FACTOR_LISTS[case]
    with pytest.raises(ValueError, match=message):
        PAIR_ENTRY_POINTS[entry][0](factors(), PropagatorMatrix.family("K", 2), order)


class TestPoissonBracket:
    def test_coordinates(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        assert poisson_bracket(x(1, d), x(2, d), K) == Poly.constant(
            K_sym(1, 2) - K_sym(2, 1), d
        )

    def test_antisymmetry_on_diagonal(self):
        rng = random.Random(16)
        for _ in range(10):
            d = rng.randint(1, 3)
            K = rand_matrix(rng, d)
            f = rand_poly(rng, d)
            assert poisson_bracket(f, f, K).is_zero()

    def test_chain_rule(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        result = poisson_bracket(x(1, d) ** 2, x(2, d), K)
        assert result == x(1, d) * (K_sym(1, 2) - K_sym(2, 1)) * 2

    def test_jacobi_identity(self):
        rng = random.Random(17)
        for _ in range(25):
            d = rng.randint(2, 3)
            K = rand_matrix(rng, d)
            f, g, h = (rand_poly(rng, d) for _ in range(3))
            total = (
                poisson_bracket(poisson_bracket(f, g, K), h, K)
                + poisson_bracket(poisson_bracket(g, h, K), f, K)
                + poisson_bracket(poisson_bracket(h, f, K), g, K)
            )
            assert total.is_zero()

    def test_matches_first_order_commutator(self):
        rng = random.Random(18)
        for _ in range(15):
            d = rng.randint(1, 3)
            K = rand_matrix(rng, d)
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            commutator = star2(f, g, K) - star2(g, f, K)
            assert commutator.hbar_coefficient(1) == poisson_bracket(f, g, K)


def change_case(rng):
    """Factors, two matrices and an order for a propagator change.

    ``d`` is 1 to 3, there are 1 to 4 factors and ``order`` is None or 0 to
    3.  The matrices are random rationals, symmetric or non-symmetric symbol
    families, or ``from_entries`` grids whose entries may carry ``hbar``.
    """
    d, m = rng.randint(1, 3), rng.randint(1, 4)
    order = rng.choice([None, 0, 1, 2, 3])
    kind = rng.randrange(4)
    if kind == 0:
        old, new = rand_matrix(rng, d), rand_matrix(rng, d)
    elif kind < 3:
        symmetric = kind == 1
        old = PropagatorMatrix.family("K", d, symmetric)
        new = PropagatorMatrix.family("P", d, symmetric)
    else:
        old, new = (
            PropagatorMatrix.from_entries(
                [[rand_entry(rng, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
            )
            for _ in range(2)
        )
    fs = [rand_poly(rng, d, max_degree=3 if m < 4 else 2, terms=2) for _ in range(m)]
    return fs, old, new, order


class TestChangePropagator:
    def test_identity_when_matrices_agree(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        terms = change_propagator([x(1, d), x(2, d)], K, K)
        assert len(terms) == 1
        assert terms[0].coeff == CoeffElement.one()
        assert terms[0].orders == ((0, 0), (0, 0))

    def test_first_order_coordinates(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        Kp = PropagatorMatrix.family("P", d)
        terms = change_propagator([x(1, d), x(2, d)], K, Kp)
        assert len(terms) == 2
        identity, first = terms
        assert identity.orders == ((0, 0), (0, 0))
        assert first.orders == ((1, 0), (0, 1))
        assert first.coeff == CoeffElement.hbar() * (K_sym(1, 2) - K_sym(1, 2, "P"))

    def test_reexpansion_matches_star_multi(self):
        rng = random.Random(19)
        for _ in range(12):
            d = rng.randint(1, 3)
            m = rng.randint(1, 3)
            K, Kp = rand_matrix(rng, d), rand_matrix(rng, d)
            fs = [rand_poly(rng, d, max_degree=3, terms=2) for _ in range(m)]
            terms = change_propagator(fs, K, Kp, 4)
            assert reexpand(terms, fs, Kp, 4) == star_multi(fs, K, 4)

    def test_reexpansion_exact_without_truncation(self):
        rng = random.Random(20)
        for _ in range(6):
            d = rng.randint(1, 2)
            K, Kp = rand_matrix(rng, d), rand_matrix(rng, d)
            fs = [rand_poly(rng, d, max_degree=2, terms=2) for _ in range(2)]
            terms = change_propagator(fs, K, Kp)
            assert reexpand(terms, fs, Kp) == star_multi(fs, K)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        rng = random.Random(2100 + seed)
        for _ in range(50):
            fs, old, new, order = change_case(rng)
            assert change_propagator(fs, old, new, order) == change_propagator_oracle(
                fs, old, new, order
            )

    def test_multiplies_no_coefficient_elements(self, monkeypatch):
        d = 3
        fs = [x(1, d) ** 2 * x(2, d) + x(3, d), x(2, d) ** 2 - x(1, d) * x(3, d), x(3, d) ** 3]
        old = PropagatorMatrix.family("K", d)
        new = PropagatorMatrix.family("P", d, symmetric=True)

        def refuse(*args):
            raise AssertionError("coefficient product inside change_propagator")

        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(CoeffElement, name, refuse)
        terms = change_propagator(fs, old, new)
        monkeypatch.undo()
        assert terms == change_propagator_oracle(fs, old, new)

    def test_reexpand_refuses_negative_order(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        terms = change_propagator([x(1, d), x(2, d)], K, K)
        with pytest.raises(ValueError, match="non-negative"):
            reexpand(terms, [x(1, d), x(2, d)], K, order=-1)

    def test_reexpand_refuses_mismatched_terms(self):
        d = 2
        K, P = PropagatorMatrix.family("K", d), PropagatorMatrix.family("P", d)
        terms = change_propagator([x(1, d), x(2, d)], K, P)
        with pytest.raises(ValueError, match="multi-index per factor"):
            reexpand(terms, [x(1, d) * x(2, d)], P)
        short = [PropagatorChangeTerm(CoeffElement.one(), ((0,), (0,)))]
        with pytest.raises(ValueError, match="multi-index per factor"):
            reexpand(short, [x(1, d), x(2, d)], P)
        negative = [PropagatorChangeTerm(CoeffElement.one(), ((1, 0), (0, -1)))]
        with pytest.raises(ValueError, match="multi-index per factor"):
            reexpand(negative, [x(1, d), x(2, d)], P)

    def test_reexpand_takes_any_sequence_as_a_multi_index(self):
        """A term's multi-indices may be lists; a derived factor that
        vanishes makes its term zero."""
        d = 2
        P = PropagatorMatrix.family("P", d)
        fs = [x(1, d) ** 2, x(2, d)]
        terms = [PropagatorChangeTerm(CoeffElement.one(), ([1, 0], [0, 0])),
                 PropagatorChangeTerm(CoeffElement.one(), ((0, 1), (0, 0)))]
        assert reexpand(terms, fs, P) == star_multi([x(1, d) * 2, x(2, d)], P)


def wide_poly(rng, d):
    """A factor whose coefficients carry up to ``hbar^3`` and ``Q`` symbols up
    to the fourth power, so a coefficient is often wider than the degree,
    as in ``hbar^3*K[Q;1,1]^4*x1^2 + K[Q;1,2]*x2``."""
    out = Poly.zero(d)
    for _ in range(rng.randint(1, 3)):
        sym = K_sym(rng.randint(1, d), rng.randint(1, d), "Q")
        coeff = CoeffElement.hbar(rng.randint(0, 3)) * sym ** rng.randint(0, 4)
        piece = Poly.constant(coeff * rand_rational(rng), d)
        for _ in range(rng.randint(0, 2)):
            piece = piece * x(rng.randint(1, d), d)
        out = out + piece
    return out


def wide_matrix(rng, d, family):
    """Entries such as ``2*hbar^2*P^3 - hbar*P'``: several monomials carrying hbar."""
    def entry(i, j):
        if rng.randrange(4) == 0:
            return rand_rational(rng)
        sym = K_sym(i, j, family)
        return (CoeffElement.hbar(rng.randint(0, 2)) * sym ** rng.randint(1, 3) * rand_rational(rng)
                + CoeffElement.hbar() * K_sym(j, i, family) * rand_rational(rng))
    return PropagatorMatrix.from_entries(
        [[entry(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)])


class TestPackedWidths:
    """Packed exponents as wide as the packing bound allows."""

    def test_hbar_field_at_its_bound(self):
        # Coefficient widths 6 and 6 plus 2 entries carrying hbar^2 each:
        # the top term has hbar^16, exactly the bound, a power of two.
        f = x(1, 1) ** 2 * CoeffElement.hbar(6)
        K = PropagatorMatrix.from_entries([[CoeffElement.hbar()]])
        product = star2(f, f, K)
        assert product == star_via_graphs([f, f], K)
        assert product.constant_coeff() == CoeffElement.hbar(16) * 2

    def test_symbol_field_at_its_bound_under_an_order_cut(self):
        # Two factors cut at order 2 take at most 2 cells, so the packing is
        # sized by 2 * (1 + 16) + 4 = 38: six bits.  The kept top term holds
        # P^32 and needs all six; sized for one cell fewer, it would carry
        # into the field of x1.
        f = x(1, 1) ** 2
        P = CoeffElement.from_symbol(PropagatorSymbol("P", 1, 1), 16)
        K = PropagatorMatrix.from_entries([[P]])
        product = star2(f, f, K, 2)
        assert product == star_via_graphs([f, f], K, 2)
        assert product.constant_coeff() == CoeffElement.hbar(2) * P * P * 2

    @pytest.mark.parametrize("seed", range(4))
    def test_star_matches_graph_oracle(self, seed):
        rng = random.Random(3100 + seed)
        for _ in range(6):
            d, m = rng.randint(1, 2), rng.randint(2, 3)
            fs = [wide_poly(rng, d) for _ in range(m)]
            K = wide_matrix(rng, d, "P")
            order = rng.choice([None, 1, 2])
            assert star_multi(fs, K, order) == star_via_graphs(fs, K, order)

    @pytest.mark.parametrize("seed", range(4))
    def test_change_matches_oracle(self, seed):
        rng = random.Random(3200 + seed)
        for _ in range(10):
            d, m = rng.randint(1, 3), rng.randint(1, 3)
            fs = [wide_poly(rng, d) for _ in range(m)]
            old, new = wide_matrix(rng, d, "K"), wide_matrix(rng, d, "P")
            order = rng.choice([None, 0, 1, 2])
            assert change_propagator(fs, old, new, order) == change_propagator_oracle(
                fs, old, new, order
            )


def factor_in(rng, d, variables, block=0):
    """A random factor of degree at most 3 in ``variables`` only, each of
    them present."""
    out = Poly.zero(d)
    for i in variables:
        piece = Poly.constant(rand_rational(rng), d) * x(i, d, block)
        for _ in range(rng.randint(0, 2)):
            piece = piece * x(rng.choice(variables), d, block)
        out = out + piece
    return out + Poly.constant(rand_rational(rng), d)


class TestLiveCells:
    """Factors that miss variables: the Moyal walk keeps only cells whose
    variables both of its factors hold."""

    SUPPORTS = ((1,), (2, 3), (1, 4))

    def test_star_multi_matches_graph_oracle(self):
        rng = random.Random(3300)
        for K in oracle_matrices(rng, 4):
            fs = [factor_in(rng, 4, v) for v in self.SUPPORTS]
            for order in (None, 1):
                assert star_multi(fs[:2], K, order) == star_via_graphs(fs[:2], K, order)
                assert star_multi(fs, K, order) == star_via_graphs(fs, K, order)

    def test_star_tensor_matches_oracle(self):
        rng = random.Random(3400)
        for K in oracle_matrices(rng, 4):
            left = factor_in(rng, 4, (1,)) * factor_in(rng, 4, (4,), block=2)
            right = factor_in(rng, 4, (2, 3), block=1)
            assert star_tensor(left, right, K) == star_tensor_oracle(left, right, K)

    def test_change_matches_oracle(self):
        rng = random.Random(3500)
        for old in oracle_matrices(rng, 4):
            new = PropagatorMatrix.family("P", 4)
            fs = [factor_in(rng, 4, v) for v in self.SUPPORTS]
            for order in (None, 2):
                assert change_propagator(fs, old, new, order) == change_propagator_oracle(
                    fs, old, new, order)

    def test_walk_derives_no_factor_in_a_variable_it_lacks(self, monkeypatch):
        derivatives, asked = _Packing.derivatives, []

        def recording(self, terms, d):
            """Each request ``r`` with the variables the terms hold, read off
            their packed keys; ``reexpand`` passes derived factors, which may
            hold fewer variables than the factor they come from."""
            at, *support = derivatives(self, terms, d)
            held = {i - 1 for (_, i), shift in self.var_shift.items()
                    if any(key >> shift & self.mask for key, num in terms if num)}
            return (lambda r: asked.append((r, held)) or at(r)), *support

        monkeypatch.setattr(_Packing, "derivatives", recording)
        rng = random.Random(3600)
        fs = [factor_in(rng, 4, v) for v in self.SUPPORTS]
        K, P = PropagatorMatrix.family("K", 4), PropagatorMatrix.family("P", 4)
        star_multi(fs, K)
        assert reexpand(change_propagator(fs, K, P), fs, P) == star_multi(fs, K)
        assert asked
        assert all(i in held for r, held in asked for i, n in enumerate(r) if n)


class TestApplyBivector:
    def test_cancelling_entries_store_no_zero_terms(self):
        d, k = 2, K_sym(1, 2, "A")
        K = PropagatorMatrix.from_entries([[1, k], [-k, 0]])
        crossed = x(1, d, 0) * x(2, d, 1) + x(2, d, 0) * x(1, d, 1)
        # K_12 and K_21 = -K_12 meet on the same monomial and cancel.
        cancelled = apply_bivector(crossed, K, (0,), (1,))
        assert cancelled.is_zero() and dict(cancelled.items()) == {}
        kept = apply_bivector(crossed + x(1, d, 0) * x(1, d, 1), K, (0,), (1,))
        assert {vm: dict(ce.items()) for vm, ce in kept.items()} == {
            VarMonomial(): {CoeffMonomial(): 1}
        }

    def test_sums_over_several_blocks(self):
        d, K = 2, PropagatorMatrix.family("K", 2)
        p = x(1, d, 0) * x(1, d, 1) * x(2, d, 2)
        by_block = sum((apply_bivector(p, K, (lb,), (rb,)) for lb in (0, 1) for rb in (1, 2)
                        if lb != rb), Poly.zero(d))
        # Block pairs (0, 1), (0, 2) and (1, 2); (1, 1) differentiates one block twice.
        same = apply_bivector(p, K, (1,), (1,))
        assert apply_bivector(p, K, (0, 1), (1, 2)) == by_block + same


class TestScalarRuleOnPackedTerms:
    def test_coeff_element_emits_int_when_integral(self):
        a, b, c = K_sym(1, 2), K_sym(2, 1), K_sym(1, 1)
        packing = _Packing([a, b, c], 2)
        keys = [packing.coeff_key(m) for e in (a, b, c) for m, _ in e.items()]
        ce = packing.coeff_element(zip(keys, (8, 6, 0)), 4)
        ((ma, _),), ((mb, _),) = a.items(), b.items()
        assert dict(ce.items()) == {ma: 2, mb: Fraction(3, 2)}
        assert_scalar_rule(q for _, q in ce.items())

    @pytest.mark.parametrize("seed", range(3))
    def test_products_keep_the_rule(self, seed):
        rng = random.Random(1500 + seed)
        d = rng.randint(1, 3)
        f, g = rand_poly(rng, d), rand_poly(rng, d)
        for K in (rand_matrix(rng, d), PropagatorMatrix.family("K", d)):
            for p in (star2(f, g, K), star_via_graphs([f, g], K), f * g):
                assert_scalar_rule(stored_values(p))
            for term in change_propagator([f, g], K, PropagatorMatrix.family("N", d)):
                assert_scalar_rule(q for _, q in term.coeff.items())


@st.composite
def packed_sums(draw):
    """A packing over up to twelve symbols of one or two families, that is
    up to three chunks of ``_Packing._CHUNK`` fields, with row and column
    indices up to 12, and ``(terms, den)`` on keys within its bound:
    numerators of either sign, zeros (cancelled terms), mixed hbar degrees,
    keys with an all-zero chunk between nonzero ones, and denominators that
    leave some coefficients non-integral."""
    families = draw(st.sampled_from([("K",), ("K", "P")]))
    symbols = draw(st.lists(st.builds(PropagatorSymbol, st.sampled_from(families),
                                      st.integers(1, 12), st.integers(1, 12)),
                            max_size=12, unique=True))
    k = draw(st.integers(1, 3))
    packing = _Packing([CoeffElement.from_symbol(s) for s in symbols], k)
    # Each of the k entries has degree 1, if any, and may carry one more hbar.
    factors = st.lists(st.integers(-1, len(symbols) - 1), max_size=k * (1 + bool(symbols)))
    picks = draw(st.lists(factors, max_size=12))
    if len(symbols) > 2 * _Packing._CHUNK:
        # The first and last symbol in packing order sit in the first and
        # the third or a later chunk, so every chunk between them is zero.
        ends = [symbols.index(packing.symbols[0]), symbols.index(packing.symbols[-1])]
        picks += [ends + [-1] * hbar for hbar in range(2 * k - 1)]
    terms = {}
    for picked in picks:
        exps = Counter(symbols[i] for i in picked if i >= 0)
        key = packing.coeff_key(CoeffMonomial.make(picked.count(-1), exps))
        terms[key] = draw(st.integers(-40, 40))
    return packing, list(terms.items()), draw(st.integers(1, 12))


class TestPackedText:
    @settings(max_examples=300, deadline=None)
    @given(packed_sums())
    def test_matches_the_decoded_element(self, case):
        packing, terms, den = case
        assert packing.text(terms, den) == str(packing.coeff_element(terms, den))

    def test_indices_sort_as_numbers(self):
        low, high = PropagatorSymbol("K", 1, 2), PropagatorSymbol("K", 1, 10)
        packing = _Packing([CoeffElement.from_symbol(high), CoeffElement.from_symbol(low)], 1)
        keys = [packing.coeff_key(CoeffMonomial.make(0, {s: 1})) for s in (high, low)]
        assert packing.text(zip(keys, (3, -1)), 2) == "-1/2*K[K;1,2] + 3/2*K[K;1,10]"

    @pytest.mark.parametrize("last", [2, 4], ids=["same-chunk", "next-chunk"])
    def test_mixed_product_sorts_before_either_square(self, last):
        """``s1*s2 < s1^2 < s2^2`` for ``s1 < s2``, whether ``s2`` is in the
        chunk of ``s1`` or the next one; no integer order of the packed keys
        gives it."""
        symbols = [PropagatorSymbol("K", 1, j) for j in range(2, 2 + 8)]
        s1, s2 = symbols[0], symbols[last]
        packing = _Packing([CoeffElement.from_symbol(s) for s in symbols], 1)
        keys = [packing.coeff_key(CoeffMonomial.make(0, exps))
                for exps in ({s2: 2}, {s1: 2}, {s1: 1, s2: 1})]
        text = packing.text(zip(keys, (1, 1, 1)), 1)
        assert text == str(packing.coeff_element(zip(keys, (1, 1, 1)), 1))
        assert text == f"{s1.text()}*{s2.text()} + {s1.text()}^2 + {s2.text()}^2"

    def test_empty_sum_is_zero(self):
        packing = _Packing([CoeffElement.from_symbol(PropagatorSymbol("K", 1, 2))], 2)
        assert packing.text([], 1) == "0"
        assert packing.text([(0, 0), (packing.coeff_key(CoeffMonomial(hbar=1)), 0)], 3) == "0"


def star_text_case(rng):
    """1-3 factors from ``rand_poly`` at ``d`` from 1 to 5 (five variables
    cross a ``_Packing._CHUNK`` boundary), a rational, hbar-carrying or
    symbol matrix, and ``order`` ``None`` or 0-3."""
    d = rng.randint(1, 5)
    factors = [rand_poly(rng, d, max_degree=rng.randint(0, 3), terms=rng.randint(1, 3))
               for _ in range(rng.randint(1, 3))]
    kind = rng.randrange(3)
    if kind == 0:
        K = rand_matrix(rng, d, symmetric=rng.random() < 0.5)
    elif kind == 1:
        K = PropagatorMatrix.from_entries(
            [[rand_entry(rng, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)])
    else:
        K = PropagatorMatrix.family("K", d, symmetric=rng.random() < 0.5)
    return factors, K, rng.choice([None, 0, 1, 2, 3])


class TestStarText:
    """``_star_text`` writes the last product of the fold straight from its
    packed sum; ``str(star_multi(...))`` is its oracle."""

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_the_rendered_product(self, seed):
        factors, K, order = star_text_case(random.Random(2300 + seed))
        assert _star_text(factors, K, order) == str(star_multi(factors, K, order))

    @pytest.mark.parametrize("seed", range(120))
    def test_each_step_is_reduced_over_the_terms_it_keeps(self, seed):
        """A step divides the terms its hbar cut keeps, and the denominator,
        by their common factor; the terms it drops do not limit that."""
        factors, K, order = star_text_case(random.Random(2300 + seed))
        _, terms, den = _moyal_fold(*_packed(factors, K, order), K, order)
        assert len(factors) == 1 or math.gcd(den, *(num for _, num in terms)) == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_block_groups_match_the_unpacked_sum(self, seed):
        rng = random.Random(2400 + seed)
        factors, K, order = star_text_case(rng)
        left, right = factors[0], rand_poly(rng, K.dim, block=rng.randint(1, 3))
        packing, terms, den = _moyal_fold(*_packed((left, right), K), K, order)
        assert packing.text(terms, den) == str(packing.unpack(terms, den, K.dim))

    @pytest.mark.parametrize("factors, expected", [
        ([Poly.zero(2), x(1, 2) + x(2, 2)], "0"),
        ([x(1, 2) - x(1, 2), x(2, 2)], "0"),
        ([Poly.constant(Fraction(3, 2), 2), Poly.constant(Fraction(-2, 9), 2)], "-1/3"),
        ([Poly.constant(Fraction(3, 2), 2)], "3/2"),
        ([x(1, 2) * Fraction(1, 2), x(2, 2) * 4], "2*x1*x2 + 2*hbar*K[K;1,2]"),
    ], ids=["zero-factor", "cancelled-factor", "constants", "one-factor", "rational"])
    def test_edge_products(self, factors, expected):
        K = PropagatorMatrix.family("K", 2)
        assert _star_text(factors, K) == str(star_multi(factors, K))
        assert _star_text(factors, K) == expected

    def test_variables_sort_across_a_chunk_boundary(self):
        """Groups whose first difference is in the second chunk of
        variable fields, x5 against x6, still sort by the variable order."""
        d = 6
        f, g = x(4, d) + x(5, d) * x(6, d), x(5, d) * x(6, d) + x(6, d) ** 2 + x(1, d) ** 2
        K = PropagatorMatrix.family("K", d)
        assert _star_text([f, g], K, 1) == str(star_multi([f, g], K, 1))

    def test_the_term_budget_refuses(self, monkeypatch):
        f = (x(1, 2) + x(2, 2)) ** 4
        K = PropagatorMatrix.family("K", 2)
        _, total, _ = _moyal_fold(*_packed((f, f), K), K, None)
        monkeypatch.setattr(starwick.star, "_MAX_PRODUCT_TERMS", len(total) - 1)
        with pytest.raises(ValueError, match=f"exceeds the budget of {len(total) - 1} terms"):
            star_multi([f, f], K)
        with pytest.raises(ValueError, match="exceeds the budget"):
            _star_text([f, f], K)

    def test_the_budget_is_checked_per_absorbed_block(self, monkeypatch):
        """A product past the budget is refused after the first block that
        passes it, before the rest of the walk's products are taken."""
        f = (x(1, 2) + x(2, 2)) ** 4
        calls, walked = [], []
        product, moyal_weights = _Packing.product, starwick.star._moyal_weights

        def counted(*args):
            calls.append(1)
            return product(*args)

        def weights(*args):
            out = moyal_weights(*args)
            walked.append(len(calls))  # the walk's own products
            return out

        K = PropagatorMatrix.family("K", 2)
        packing, packed = _packed((f, f), K)
        monkeypatch.setattr(starwick.star, "_MAX_PRODUCT_TERMS", 0)
        monkeypatch.setattr(starwick.star, "_moyal_weights", weights)
        monkeypatch.setattr(_Packing, "product", staticmethod(counted))
        with pytest.raises(ValueError, match="exceeds the budget of 0 terms"):
            _moyal_fold(packing, packed, K, None)
        assert len(calls) == walked[0] + 1
