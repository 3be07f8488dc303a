import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from starwick import CoeffElement, ParseError, Poly, PropagatorSymbol, parse

from helpers import rand_poly
from test_algebra import assert_scalar_rule, polys, stored_values


def x(i, d):
    return Poly.variable(i, d)


class TestGrammar:
    def test_first_order_star_result(self):
        expected = x(1, 2) * x(2, 2) + Poly.constant(
            CoeffElement.hbar() * CoeffElement.from_symbol(PropagatorSymbol("K", 1, 2)), 2
        )
        assert parse("x1*x2 + hbar*K[K;1,2]", 2) == expected

    def test_binomial_square(self):
        assert parse("(x1+1)^2", 1) == x(1, 1) ** 2 + x(1, 1) * 2 + 1

    def test_literals_follow_the_scalar_rule(self):
        p = parse("(3*x1 - 2)^3 + 1/2*x2 + 4/2*hbar*K[K;1,2]", 2)
        assert_scalar_rule(stored_values(p))
        assert {type(q) for q in stored_values(p)} == {int, Fraction}
        assert all(type(q) is int for q in stored_values(parse("(3*x1 - 2*x2 + 1)^4", 2)))

    def test_precedence(self):
        assert parse("2*x1^2 + 1", 1) == x(1, 1) ** 2 * 2 + 1
        assert parse("-x1^2", 1) == -(x(1, 1) ** 2)

    def test_rationals(self):
        assert parse("3/2", 1) == Poly.constant(Fraction(3, 2), 1)
        assert parse("x1 - 1/2", 1) == x(1, 1) - Fraction(1, 2)

    def test_unary_and_binary_minus(self):
        assert parse("-x1 + x1", 1).is_zero()
        assert parse("2 - 3", 1) == Poly.constant(-1, 1)

    def test_symmetric_family_normalizes(self):
        assert parse("K[K;2,1]", 2, {"K"}) == parse("K[K;1,2]", 2, {"K"})
        assert parse("K[K;2,1]", 2) != parse("K[K;1,2]", 2)


LONG = "1" * 5000
TOO_LONG = "integer literal of 5000 digits is too long"

# Every refusal of the reader: input, dimension, message, position.
REFUSALS = [
    ("x1 $ x2", 1, "unexpected character '$'", 3),
    ("\tx1 $", 1, "unexpected character '$'", 4),
    ("x1 +\n$", 1, "unexpected character '$'", 5),
    ("x1 +\xa0$", 1, "unexpected character '$'", 5),
    ("\n)", 1, "unexpected ')'", 1),
    ("x1 +  ", 1, "unexpected 'end of input'", 6),
    ("1/0", 1, "zero denominator", 2),
    ("1/", 1, "expected 'int', found 'end of input'", 2),
    ("x1^x2", 2, "exponent must be a non-negative integer literal", 3),
    ("K[K;1 2]", 2, "expected ',', found '2'", 6),
    ("K[1;1,1]", 1, "expected 'ident', found '1'", 2),
    ("K[K;1,1", 1, "expected ']', found 'end of input'", 7),
    ("K[K;1,3]", 2, "symbol indices (1,3) exceed dimension 2", 0),
    ("x3", 2, "variable x3 exceeds dimension 2", 0),
    ("y1", 1, "unknown identifier 'y1'", 0),
    ("(x1", 1, "expected ')', found 'end of input'", 3),
    (")", 1, "unexpected ')'", 0),
    ("x1 x1", 1, "unexpected 'x1'", 3),
    ("K[K;1,1]x1", 1, "unexpected 'x1'", 8),
    ("x1 x1 $", 1, "unexpected character '$'", 6),
    pytest.param("(" * 101 + "x1" + ")" * 101, 1, "parentheses nested deeper than 100", 100,
                 id="nested-101"),
    # Integer literals Python will not convert (more than 4,300 digits).
    pytest.param("x1 + " + LONG, 1, TOO_LONG, 5, id="long-number"),
    pytest.param("1/" + LONG, 1, TOO_LONG, 2, id="long-denominator"),
    pytest.param("x1^" + LONG, 1, TOO_LONG, 3, id="long-exponent"),
    pytest.param("x" + LONG, 1, TOO_LONG, 1, id="long-variable-index"),
    pytest.param("K[K;" + LONG + ",1]", 1, TOO_LONG, 4, id="long-symbol-row"),
    pytest.param("K[K;1," + LONG + "]", 1, TOO_LONG, 6, id="long-symbol-column"),
]


class TestErrors:
    @pytest.mark.parametrize("text, dim, message, position", REFUSALS)
    def test_refusal_message_and_position(self, text, dim, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, dim)
        assert str(err.value) == f"syntax error at position {position}: {message}"
        assert err.value.position == position

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse("x1^-1", 1)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("y1 + 2", 1)

    def test_position_is_reported(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + ", 1)
        assert err.value.position == 5

    def test_variable_out_of_dimension(self):
        with pytest.raises(ParseError, match="dimension"):
            parse("x3", 2)

    def test_symbol_index_out_of_dimension(self):
        with pytest.raises(ParseError, match="dimension"):
            parse("K[K;1,3]", 2)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x1 + 1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 x1", 1)

    def test_nesting_is_bounded(self):
        # Deeper nesting would exhaust the recursive descent's stack.
        assert parse("(" * 100 + "x1" + ")" * 100, 1) == x(1, 1)
        with pytest.raises(ParseError, match="nested deeper than 100") as err:
            parse("(" * 1000 + "x1" + ")" * 1000, 1)
        assert err.value.position == 100


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(polys())
    def test_print_parse_identity(self, p):
        assert parse(str(p), 2) == p

    def test_random_polys_round_trip(self):
        rng = random.Random(41)
        for _ in range(40):
            d = rng.randint(1, 4)
            p = rand_poly(rng, d, max_degree=4, terms=4)
            assert parse(str(p), d) == p
