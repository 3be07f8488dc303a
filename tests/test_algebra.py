import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from starwick import CoeffElement, CoeffMonomial, Poly, PropagatorSymbol, VarMonomial

from helpers import _vm_cmp, rand_poly


def sym(family, i, j):
    return PropagatorSymbol(family, i, j)


def x(i, d, block=0):
    return Poly.variable(i, d, block=block)


# ---------------------------------------------------------------- strategies

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)
symbols = st.builds(
    sym, st.sampled_from(["K", "L"]), st.integers(1, 2), st.integers(1, 2)
)
monomials = st.builds(
    lambda h, syms: CoeffMonomial.make(h, {s: e for s, e in syms}),
    st.integers(0, 2),
    st.lists(st.tuples(symbols, st.integers(1, 2)), max_size=2),
)
elements = st.builds(
    lambda pairs: CoeffElement({m: q for m, q in pairs}),
    st.lists(st.tuples(monomials, rationals), max_size=3),
)


@st.composite
def polys(draw, dim=2, blocks=(0,)):
    terms = draw(st.lists(st.tuples(
        st.lists(
            st.tuples(st.sampled_from(blocks), st.integers(1, dim), st.integers(1, 2)),
            max_size=2,
        ),
        elements,
    ), max_size=3))
    out = Poly.zero(dim)
    for vars_, coeff in terms:
        exps = {}
        for block, index, exp in vars_:
            key = (block, index)
            exps[key] = exps.get(key, 0) + exp
        out = out + Poly(dim, {VarMonomial.make(exps): coeff})
    return out


# ------------------------------------------------------------ coefficient ring


@settings(max_examples=80, deadline=None)
@given(elements, elements, elements)
def test_coeff_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + CoeffElement.zero() == a
    assert a * CoeffElement.one() == a
    assert a - a == CoeffElement.zero()


@settings(max_examples=80, deadline=None)
@given(monomials, monomials)
def test_monomial_product_adds_exponents(m1, m2):
    exps = dict(m1.symbols)
    for s, e in m2.symbols:
        exps[s] = exps.get(s, 0) + e
    expected = CoeffMonomial.make(m1.hbar + m2.hbar, exps)
    product = m1 * m2
    assert product == expected and hash(product) == hash(expected)
    # the product is canonical: the validating constructor accepts it
    assert CoeffMonomial(product.hbar, product.symbols) == product


@settings(max_examples=80, deadline=None)
@given(elements, monomials, rationals)
def test_coeff_product_by_one_monomial(a, mono, q):
    single = CoeffElement({mono: q})
    expected = CoeffElement.zero()
    for m1, q1 in a.items():
        expected = expected + CoeffElement({m1 * mono: q1 * q})
    assert a * single == expected
    assert single * a == expected


def test_pickled_coefficients_rehash_in_another_process():
    code = (
        "import pickle, sys\n"
        "from starwick import CoeffElement, PropagatorSymbol\n"
        "c = CoeffElement.hbar() * CoeffElement.from_symbol(PropagatorSymbol('K', 1, 2))\n"
        "sys.stdout.buffer.write(pickle.dumps(c))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    loaded = pickle.loads(out)
    local = CoeffElement.hbar() * CoeffElement.from_symbol(sym("K", 1, 2))
    assert loaded == local
    assert loaded + local == local * 2


def test_coeff_canonical_form_drops_zeros():
    a = CoeffElement({CoeffMonomial(): Fraction(1, 2)})
    b = CoeffElement({CoeffMonomial(): Fraction(-1, 2)})
    total = a + b
    assert total.is_zero()
    assert list(total.items()) == []


def test_symbol_order_and_validation():
    assert sym("K", 1, 2) < sym("K", 2, 1) < sym("L", 1, 1)
    with pytest.raises(ValueError):
        sym("K", 0, 1)


def test_symbol_is_its_field_tuple():
    s = sym("K", 1, 2)
    assert PropagatorSymbol.__lt__ is tuple.__lt__
    assert (s.family, s.row, s.col) == ("K", 1, 2)
    assert s == ("K", 1, 2) and hash(s) == hash(("K", 1, 2))
    assert repr(s) == "PropagatorSymbol(family='K', row=1, col=2)"
    assert s.text() == "K[K;1,2]"
    loaded = pickle.loads(pickle.dumps(s))
    assert type(loaded) is PropagatorSymbol and loaded == s
    with pytest.raises(AttributeError):
        s.row = 3
    with pytest.raises(AttributeError):
        s.extra = 1
    with pytest.raises(ValueError, match=r"1-based, got \(2, 0\)"):
        sym("K", 2, 0)


var_monomials = st.builds(
    lambda entries: VarMonomial.make({(b, i): e for b, i, e in entries}),
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3), st.integers(1, 3)), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(var_monomials, max_size=8, unique=True))
def test_sort_key_orders_as_the_graded_comparator(monomials):
    p = Poly(3, {vm: 1 for vm in monomials})
    expected = sorted(monomials, key=cmp_to_key(_vm_cmp), reverse=True)
    assert [vm for vm, _ in p.sorted_terms()] == expected


def test_coeff_substitute_examples():
    c = CoeffElement.hbar() * CoeffElement.from_symbol(sym("K", 1, 2))
    assert c.substitute({sym("K", 1, 2): Fraction(1, 2)}, 1) == Fraction(1, 2)

    c = CoeffElement({CoeffMonomial.make(2, {sym("K", 1, 1): 2}): 3})
    assert c.substitute({sym("K", 1, 1): 2}, 1) == 12

    assert CoeffElement.zero().substitute({}, 1) == 0


def test_coeff_substitute_missing_symbol_is_named():
    c = CoeffElement.from_symbol(sym("K", 1, 2))
    with pytest.raises(ValueError, match=r"K\[K;1,2\]"):
        c.substitute({}, 1)


# ------------------------------------------------------------------ polynomials


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * Poly.one(2) == p


def test_derivative_power_rule():
    d = 2
    p = x(1, d) ** 2 * x(2, d)
    assert p.derivative(1) == x(1, d) * x(2, d) * 2


def test_derivative_kills_constants():
    c = Poly.constant(CoeffElement.from_symbol(sym("K", 1, 1)), 2)
    assert c.derivative(2).is_zero()


def test_derivative_acts_per_block():
    d = 1
    p = x(1, d, block=0) * x(1, d, block=1)
    total = p.derivative(1, block=0) + p.derivative(1, block=1)
    assert total == x(1, d, block=1) + x(1, d, block=0)


def test_derivative_index_out_of_range():
    with pytest.raises(ValueError):
        x(1, 2).derivative(3)


@settings(max_examples=60, deadline=None)
@given(polys(dim=3, blocks=(0, 1, 2)), st.integers(1, 3), st.sampled_from([0, 1, 2]))
def test_derivative_monomials_match_checked_construction(p, index, block):
    expected = Poly.zero(3)
    for vm, ce in p.items():
        exps = dict(vm.items)
        e = exps.get((block, index), 0)
        if e:
            exps[(block, index)] = e - 1
            expected = expected + Poly(3, {VarMonomial.make(exps): ce * e})
    derived = p.derivative(index, block=block)
    assert derived == expected
    for vm, _ in derived.items():
        checked = VarMonomial.make(dict(vm.items))
        assert vm.items == checked.items and hash(vm) == hash(checked)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(p, q):
    lhs = (p * q).derivative(1)
    rhs = p.derivative(1) * q + p * q.derivative(1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys(blocks=(0, 1)), polys(blocks=(2,)))
def test_block_derivation_splits_as_coproduct(left, right):
    # the derivation over all blocks equals (left part) + (right part)
    p = left * right
    whole = sum(
        (p.derivative(1, block=b) for b in (0, 1, 2)), Poly.zero(2)
    )
    left_part = sum((left.derivative(1, block=b) for b in (0, 1)), Poly.zero(2)) * right
    right_part = left * right.derivative(1, block=2)
    assert whole == left_part + right_part


def test_multiply_examples():
    d = 1
    assert (x(1, d) + 1) * (x(1, d) - 1) == x(1, d) ** 2 - 1
    scaled = x(1, 2) * (CoeffElement.hbar() * CoeffElement.from_symbol(sym("K", 1, 2)))
    assert scaled * x(2, 2) == (x(1, 2) * x(2, 2)) * (
        CoeffElement.hbar() * CoeffElement.from_symbol(sym("K", 1, 2))
    )
    assert (x(1, d) * Poly.zero(d)).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(blocks=(0, 1)), st.sampled_from([0, 1, -1, 3, -2, Fraction(0), Fraction(1),
                                              Fraction(-1), Fraction(2, 3), Fraction(-5, 4)]))
def test_rational_scale_matches_one_term_coefficient(p, q):
    through_element = p * CoeffElement.from_rational(q)
    assert p * q == through_element
    assert q * p == through_element
    assert all(not ce.is_zero() for _, ce in (p * q).items())
    assert (p * q).is_zero() == (q == 0 or p.is_zero())


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        x(1, 2) * x(1, 3)


def test_merge_blocks_examples():
    d = 2
    assert (x(1, d, block=0) * x(1, d, block=1)).merge_blocks() == x(1, d) ** 2
    assert (x(1, d, block=0) * x(2, d, block=1)).merge_blocks() == x(1, d) * x(2, d)
    assert ((x(1, d) + 1) * Poly.one(d)).merge_blocks() == x(1, d) + 1


@settings(max_examples=40, deadline=None)
@given(polys(blocks=(0, 1)), polys(blocks=(0, 1)))
def test_merge_blocks_is_ring_homomorphism(p, q):
    assert (p + q).merge_blocks() == p.merge_blocks() + q.merge_blocks()
    assert (p * q).merge_blocks() == p.merge_blocks() * q.merge_blocks()


def test_relabel_blocks_collision_rejected():
    p = x(1, 2, block=0) * x(2, 2, block=1)
    with pytest.raises(ValueError):
        p.relabel_blocks({0: 1})


def test_canonical_text_examples():
    d = 2
    p = x(1, d) * x(2, d) + Poly.constant(
        CoeffElement.hbar() * CoeffElement.from_symbol(sym("K", 1, 2)), d
    )
    assert str(p) == "x1*x2 + hbar*K[K;1,2]"
    assert str(Poly.zero(d)) == "0"
    assert str(x(1, d) * Fraction(-3, 2) + 1) == "-3/2*x1 + 1"


def test_random_poly_generator_round_trips_dimension():
    rng = random.Random(0)
    p = rand_poly(rng, 3)
    assert p.dim == 3


# ------------------------------------------------- scalar rule, in-place sums


def stored_values(p):
    """Every coefficient value a polynomial stores, read off its term maps."""
    return [q for _, ce in p.items() for _, q in ce.items()]


def assert_scalar_rule(values):
    for q in values:
        assert q != 0
        assert type(q) is (int if q.denominator == 1 else Fraction), q


class TestScalarRule:
    def test_int_and_fraction_values_are_one_coefficient(self):
        m = CoeffMonomial.make(1, {sym("K", 1, 2): 2})
        a, b = CoeffElement({m: Fraction(3)}), CoeffElement({m: 3})
        assert a == b and hash(a) == hash(b)
        assert str(a) == str(b) == "3*hbar*K[K;1,2]^2"
        assert Poly.constant(a, 2) == Poly.constant(b, 2)
        assert hash(Poly.constant(a, 2)) == hash(Poly.constant(b, 2))

    def test_constructors_store_integral_values_as_int(self):
        k = sym("K", 1, 2)
        m1, m2 = CoeffMonomial.make(0, {k: 1}), CoeffMonomial.make(2)
        built = CoeffElement({m1: Fraction(6, 2), m2: Fraction(1, 2), CoeffMonomial(): True})
        assert dict(built.items()) == {m1: 3, m2: Fraction(1, 2), CoeffMonomial(): 1}
        elements = [
            built,
            CoeffElement.one(),
            CoeffElement.hbar(3),
            CoeffElement.from_symbol(k, 2),
            CoeffElement.from_rational(Fraction(8, 4)),
            CoeffElement.from_rational(Fraction(3, 4)),
            built * 2,
            built * Fraction(2, 3),
            built * CoeffElement.from_rational(Fraction(1, 3)),
            built + CoeffElement({m2: Fraction(1, 2)}),
            built - built,
        ]
        for ce in elements:
            assert_scalar_rule(q for _, q in ce.items())
        assert dict((built * 2).items())[m2] == 1
        assert dict((built + CoeffElement({m2: Fraction(1, 2)})).items())[m2] == 1

    def test_polynomial_arithmetic_keeps_the_rule(self):
        d = 2
        half = Poly.constant(Fraction(1, 2), d)
        cases = [
            x(1, d) * 3 - 2,
            half * x(1, d) ** 2,
            (half * x(1, d) ** 2).derivative(1),
            (x(1, d) * half) * 4,
            (x(1, d, block=0) * half + x(1, d, block=1) * half).merge_blocks(),
        ]
        for p in cases:
            assert_scalar_rule(stored_values(p))
        assert stored_values((half * x(1, d) ** 2).derivative(1)) == [1]


class TestInPlaceSums:
    """The accumulator behind products and block merges stores no zero value,
    no empty coefficient and no cancelled key."""

    @staticmethod
    def term_maps(p):
        return {vm: dict(ce.items()) for vm, ce in p.items()}

    def test_product_stores_no_cancelled_key(self):
        d = 2
        p = (x(1, d) + x(2, d)) * (x(1, d) - x(2, d))
        assert self.term_maps(p) == {
            VarMonomial.make({(0, 1): 2}): {CoeffMonomial(): 1},
            VarMonomial.make({(0, 2): 2}): {CoeffMonomial(): -1},
        }
        assert VarMonomial.make({(0, 1): 1, (0, 2): 1}) not in self.term_maps(p)

    def test_merge_blocks_drops_cancelled_blocks(self):
        d = 2
        k = CoeffElement.from_symbol(sym("K", 1, 2))
        tensor = (x(1, d, block=0) * x(2, d, block=1) * (k + 1)
                  - x(2, d, block=0) * x(1, d, block=1) * k
                  + x(1, d, block=0) ** 2 * 2 - x(1, d, block=1) ** 2 * 2)
        merged = tensor.merge_blocks()
        assert self.term_maps(merged) == {VarMonomial.make({(0, 1): 1, (0, 2): 1}): {CoeffMonomial(): 1}}
        cancelled = (x(1, d, block=0) * k - x(1, d, block=1) * k).merge_blocks()
        assert cancelled.is_zero() and self.term_maps(cancelled) == {}
