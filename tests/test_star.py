import random
from fractions import Fraction

import pytest

from starwick import (
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorChangeTerm,
    PropagatorMatrix,
    PropagatorSymbol,
    VarMonomial,
    apply_bivector,
    change_propagator,
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
from starwick.star import _Packing
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

    def test_symmetric_declaration_checked(self):
        with pytest.raises(ValueError):
            PropagatorMatrix.from_entries([[0, 1], [2, 0]], symmetric=True)

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
    "dimension_mismatch": (lambda: [x(1, 3), x(2, 3)], None, "dimension mismatch"),
    "negative_order": (lambda: [x(1, 2), x(2, 2)], -1, "non-negative"),
}


@pytest.mark.parametrize("case", BAD_FACTOR_LISTS)
@pytest.mark.parametrize("entry", FACTOR_LIST_ENTRY_POINTS)
def test_factor_lists_are_checked_alike(entry, case):
    factors, order, message = BAD_FACTOR_LISTS[case]
    with pytest.raises(ValueError, match=message):
        FACTOR_LIST_ENTRY_POINTS[entry](factors(), PropagatorMatrix.family("K", 2), order)


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
