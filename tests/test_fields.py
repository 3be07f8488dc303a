import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starwick import (
    CoeffElement,
    KernelGrid,
    Poly,
    PropagatorMatrix,
    PropagatorSymbol,
    QuadratureRule,
    WickMonomialSpec,
    change_propagator,
    expectation_formula,
    field_expectation,
    field_poisson,
    field_star,
    field_wick_power,
    functional_star,
    poisson_bracket,
    reexpand,
    specialize,
    star2,
    star_tensor,
    wick_power,
)
from starwick.cli import main
from starwick.exprparse import parse

from helpers import all_pairings, functional_star_oracle, rand_poly, rand_rational


def x(i, d):
    return Poly.variable(i, d)


def grid2(kernel, field, hbar=1, mode="rational"):
    points = [f"p{i}" for i in range(1, len(field) + 1)]
    return KernelGrid.make(points, kernel, field, hbar, mode)


def rand_density(rng, dim):
    """Random density whose coefficients carry hbar and two symbol families."""
    out = rand_poly(rng, dim, max_degree=2)
    for family in ("A", "B"):
        sym = PropagatorSymbol(family, rng.randint(1, dim), rng.randint(1, dim))
        coeff = CoeffElement.from_symbol(sym, rng.randint(1, 2)) * rand_rational(rng)
        if rng.random() < 0.5:
            coeff = coeff * CoeffElement.hbar()
        out = out + rand_poly(rng, dim, max_degree=2, terms=1) * coeff
    return out


def rand_grid(rng, d, mode="rational"):
    kernel = [[rand_rational(rng) for _ in range(d)] for _ in range(d)]
    field = [rand_rational(rng) for _ in range(d)]
    hbar = rand_rational(rng, span=2, den=2)
    if mode == "float":
        kernel = [[float(v) for v in row] for row in kernel]
        field = [float(v) for v in field]
        hbar = float(hbar)
    return grid2(kernel, field, hbar, mode)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)
# A valid two-point grid in which any key, or any number, may be any JSON value.
grid_json = st.fixed_dictionaries({
    "points": st.just(["a", "b"]) | json_values,
    "kernel": st.just([[0, 1], [1, 0]])
    | st.lists(st.lists(json_values, min_size=2, max_size=2), min_size=2, max_size=2)
    | json_values,
    "field": st.just([1, -2]) | st.lists(json_values, min_size=2, max_size=2) | json_values,
    "hbar": st.just(1) | json_values,
    "mode": st.sampled_from(["rational", "float"]) | json_values,
})


class TestGridCodec:
    def test_json_round_trip_rational(self):
        grid = grid2([[Fraction(1, 2), 1], [1, 0]], [3, Fraction(-2, 3)])
        data = grid.to_json()
        assert data["kernel"][0][0] == "1/2"
        assert data["field"][1] == "-2/3"
        assert KernelGrid.from_json(json.dumps(data)) == grid

    def test_json_round_trip_float(self):
        grid = grid2([[0.5, 1.0], [1.0, 0.25]], [3.0, -2.5], hbar=0.5, mode="float")
        assert KernelGrid.from_json(json.dumps(grid.to_json())) == grid

    def test_rational_mode_rejects_floats(self):
        with pytest.raises(ValueError):
            grid2([[0.5]], [1])

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            grid2([[0, 1]], [1, 2])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            KernelGrid.make(["a", "a"], [[0, 1], [1, 0]], [1, 1], 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "nan", "-Infinity"])
    @pytest.mark.parametrize("where", ["kernel", "field", "hbar"])
    def test_float_mode_rejects_non_finite(self, bad, where):
        data = {"kernel": [[0.5, 1.0], [1.0, 0.25]], "field": [3.0, -2.5], "hbar": 0.5}
        if where == "kernel":
            data["kernel"][1][0] = bad
        elif where == "field":
            data["field"][0] = bad
        else:
            data["hbar"] = bad
        with pytest.raises(ValueError, match="finite"):
            grid2(data["kernel"], data["field"], data["hbar"], mode="float")

    @pytest.mark.parametrize("bad", [0.5, True, "1/2"])
    def test_rational_constructor_checks_number_types(self, bad):
        with pytest.raises(ValueError, match="integers or fractions"):
            KernelGrid(("a",), ((bad,),), (Fraction(1),), Fraction(1))

    def test_non_finite_json_literal_rejected(self):
        text = '{"points": ["a"], "kernel": [[NaN]], "field": [1.0], "mode": "float"}'
        with pytest.raises(ValueError, match="finite"):
            KernelGrid.from_json(text)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize(
        "key, bad", [("kernel", [[True]]), ("field", [False]), ("hbar", True)],
        ids=["kernel", "field", "hbar"],
    )
    def test_booleans_are_not_numbers(self, mode, key, bad):
        data = {"points": ["a"], "kernel": [[1]], "field": [1], "hbar": 1, "mode": mode}
        data[key] = bad
        with pytest.raises(ValueError, match="booleans"):
            KernelGrid.from_json(data)

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("points", 5, "points must be a list"),
            ("points", "ab", "points must be a list"),
            ("kernel", [1, 2], "kernel row must be a list"),
            ("kernel", {"a": 1}, "kernel must be a list"),
            ("field", "12", "field must be a list"),
        ],
        ids=["points-int", "points-str", "kernel-int-rows", "kernel-object", "field-str"],
    )
    def test_malformed_shapes_rejected(self, key, bad, message):
        data = {"points": ["a", "b"], "kernel": [[0, 1], [1, 0]], "field": [1, 2]}
        data[key] = bad
        with pytest.raises(ValueError, match=message):
            KernelGrid.from_json(data)

    @pytest.mark.parametrize(
        "key, bad",
        [("kernel", [[None]]), ("field", [[1.0]]), ("hbar", [1]), ("hbar", {})],
        ids=["kernel-null", "field-list", "hbar-list", "hbar-object"],
    )
    def test_float_mode_rejects_non_numbers(self, key, bad):
        data = {"points": ["a"], "kernel": [[1.0]], "field": [1.0], "mode": "float"}
        data[key] = bad
        with pytest.raises(ValueError, match="float mode cannot hold"):
            KernelGrid.from_json(data)

    def test_float_overflow_rejected(self):
        data = {"points": ["a"], "kernel": [[10**400]], "field": [1.0], "mode": "float"}
        with pytest.raises(ValueError, match="finite"):
            KernelGrid.from_json(data)

    @settings(max_examples=200, deadline=None)
    @given(grid_json)
    def test_json_values_give_a_grid_or_value_error(self, data):
        try:
            grid = KernelGrid.from_json(data)
        except ValueError:
            return
        assert isinstance(grid, KernelGrid)

    @pytest.mark.parametrize("key, value", [
        ("symmetric", True), ("symmetric", False), ("symmetric", "false"), ("symmetric", "true"),
        ("symmetric", 0), ("symmetric", 1), ("symmetric", None), ("symmetric", []),
        ("Hbar", "5"),
    ], ids=["symmetric-true", "symmetric-false", "symmetric-string-false",
            "symmetric-string-true", "symmetric-0", "symmetric-1", "symmetric-null",
            "symmetric-list", "misspelt-hbar"])
    def test_unknown_keys_refused(self, key, value):
        # A grid takes only the keys it reads: a misspelt "Hbar" would
        # otherwise compute with hbar = 1, and "symmetric" is no grid key.
        data = {"points": ["a"], "kernel": [[1]], "field": [1], key: value}
        with pytest.raises(ValueError, match=rf"unknown keys: \['{key}'\]"):
            KernelGrid.from_json(data)

    @pytest.mark.parametrize("points", [[1, None], ["a", None], [1, 2], [["a"], "b"]])
    def test_point_labels_must_be_strings(self, points):
        with pytest.raises(ValueError, match="labels must be strings"):
            KernelGrid.make(points, [[0, 1], [1, 0]], [1, 2], 1)

    @pytest.mark.parametrize("bad", ["1e999999999", "1E5", "-2.5e-3", "1/2e3"])
    def test_rational_mode_refuses_exponent_notation(self, bad):
        data = {"points": ["a"], "kernel": [[bad]], "field": [1]}
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent notation"):
            KernelGrid.from_json(data)
        assert time.perf_counter() - start < 1.0

    def test_float_mode_keeps_exponent_notation(self):
        data = {"points": ["a"], "kernel": [["1e5"]], "field": ["-2.5e-3"], "mode": "float"}
        grid = KernelGrid.from_json(data)
        assert grid.kernel == ((100000.0,),) and grid.field == (-0.0025,)

    def test_zero_denominator_entry_rejected(self):
        text = '{"points": ["a"], "kernel": [["1/0"]], "field": [1]}'
        with pytest.raises(ValueError, match="zero denominator"):
            KernelGrid.from_json(text)


class TestSpecialize:
    def test_first_order_example(self):
        d = 2
        p = x(1, d) * x(2, d) + Poly.constant(
            CoeffElement.hbar() * CoeffElement.from_symbol(PropagatorSymbol("K", 1, 2)), d
        )
        grid = grid2([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [1, 2])
        assert specialize(p, grid) == Fraction(5, 2)

    def test_zero(self):
        grid = grid2([[0]], [5])
        assert specialize(Poly.zero(1), grid) == 0

    def test_wick_square(self):
        K = PropagatorMatrix.family("K", 1)
        grid = grid2([[1]], [3])
        assert specialize(wick_power(1, 2, K), grid) == 10

    def test_index_overflow(self):
        p = Poly.constant(CoeffElement.from_symbol(PropagatorSymbol("K", 1, 3)), 3)
        grid = grid2([[0, 1], [1, 0]], [1, 1])
        with pytest.raises(ValueError, match="exceeds"):
            specialize(p, grid)


class TestFieldStar:
    def test_first_order_structure(self):
        grid = grid2([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], [2, 5])
        value = field_star(x(1, 2), x(2, 2), grid)
        assert value == 10 + grid.hbar * Fraction(1, 3)

    def test_symmetric_kernel_commutes(self):
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(1, 3)
            kernel = [[rand_rational(rng) for _ in range(d)] for _ in range(d)]
            for i in range(d):
                for j in range(i):
                    kernel[i][j] = kernel[j][i]
            grid = grid2(kernel, [rand_rational(rng) for _ in range(d)])
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            assert field_star(f, g, grid) == field_star(g, f, grid)

    def test_constant_factor(self):
        grid = grid2([[0, 1], [1, 0]], [2, 3])
        c = Poly.constant(Fraction(7, 2), 2)
        g = x(1, 2) ** 2 + x(2, 2)
        assert field_star(c, g, grid) == Fraction(7, 2) * specialize(g, grid)


class TestIntegralGrids:
    """Integral coefficients are ints, so a rational grid of plain ints
    (built directly, not decoded into Fractions) must still give exact results."""

    @staticmethod
    def grids():
        points, kernel, field = ("a", "b"), ((1, 2), (3, 4)), (2, 5)
        plain = KernelGrid(points, kernel, field, 1)
        decoded = KernelGrid.make(points, kernel, field, 1)
        assert all(type(v) is int for v in (plain.hbar, *plain.field, *plain.kernel[0]))
        return plain, decoded

    def test_rational_results_stay_fractions(self):
        plain, decoded = self.grids()
        f, g = x(1, 2) ** 2 + x(2, 2) * 3, x(1, 2) * x(2, 2) * 2
        rule = QuadratureRule.all_tuples(plain, 2)
        for compute in (lambda grid: specialize(f * g, grid),
                        lambda grid: field_star(f, g, grid),
                        lambda grid: field_expectation((2, 2), grid),
                        lambda grid: functional_star(f, g, rule, grid)):
            value = compute(plain)
            assert type(value) is Fraction
            assert value == compute(decoded)
        assert functional_star(f, g, rule, plain) == functional_star_oracle(f, g, rule, decoded)


class TestFieldPoisson:
    def test_coordinates(self):
        grid = grid2([[0, 2], [5, 0]], [1, 1])
        assert field_poisson(x(1, 2), x(2, 2), grid) == 2 - 5

    def test_symmetric_kernel_vanishes(self):
        rng = random.Random(32)
        kernel = [[rand_rational(rng) for _ in range(3)] for _ in range(3)]
        for i in range(3):
            for j in range(i):
                kernel[i][j] = kernel[j][i]
        grid = grid2(kernel, [rand_rational(rng) for _ in range(3)])
        for _ in range(5):
            f, g = rand_poly(rng, 3), rand_poly(rng, 3)
            assert field_poisson(f, g, grid) == 0

    def test_diagonal_vanishes(self):
        rng = random.Random(33)
        grid = rand_grid(rng, 2)
        f = rand_poly(rng, 2)
        assert field_poisson(f, f, grid) == 0


class TestFieldWickPower:
    def test_examples(self):
        grid = grid2([[1]], [3])
        assert field_wick_power(1, 2, grid) == 10
        assert field_wick_power(1, 1, grid) == 3
        zero_field = grid2([[1]], [0])
        assert field_wick_power(1, 4, zero_field) == 3

    def test_matches_symbolic_route(self):
        """The specialized symbolic Wick power against the numeric Hermite
        recurrence ``He_{n+1} = phi He_n + n hbar K_ii He_{n-1}`` (plus sign:
        the Wick power is the iterated star power, ``x * x = x^2 + hbar K_ii``)."""
        rng = random.Random(34)
        for mode in ("rational", "float"):
            for _ in range(8):
                d = rng.randint(1, 3)
                grid = rand_grid(rng, d, mode)
                i = rng.randint(1, d)
                phi, c = grid.field[i - 1], grid.hbar * grid.kernel[i - 1][i - 1]
                # the same recurrence on absolute values bounds every summand
                he, scale = [1, phi], [1, abs(phi)]
                for n in range(1, 8):
                    he.append(phi * he[n] + n * c * he[n - 1])
                    scale.append(abs(phi) * scale[n] + n * abs(c) * scale[n - 1])
                for power in range(9):
                    value = field_wick_power(i, power, grid)
                    if mode == "rational":
                        assert value == he[power]
                    else:
                        assert isinstance(value, float)
                        assert abs(value - he[power]) <= 1e-12 * scale[power]


class TestFieldExpectation:
    def test_three_matchings(self):
        d = 4
        kernel = [[0 if i == j else 1 for j in range(d)] for i in range(d)]
        grid = grid2(kernel, [0] * d)
        assert field_expectation((1, 1, 1, 1), grid) == 3

    def test_single_pair(self):
        grid = grid2([[0, Fraction(2, 7)], [Fraction(2, 7), 0]], [0, 0])
        assert field_expectation((1, 1), grid) == Fraction(2, 7)

    def test_inadmissible_vanishes(self):
        grid = grid2([[0, 1], [1, 0]], [0, 0])
        assert field_expectation((3, 1), grid) == 0

    @pytest.mark.parametrize("powers", [(2.9, 2.2), (True, True), (1.0, 1)], ids=str)
    def test_non_integer_powers_rejected(self, powers):
        grid = grid2([[0, 1], [1, 0]], [0, 0])
        with pytest.raises(ValueError, match="integers"):
            field_expectation(powers, grid)

    def test_matches_pairing_sum(self):
        """``prod n_i! * E`` counts the pairings of the labelled field copies
        with no pair inside one group, each weighted by its kernel entries
        ``K[i][j]``, ``i < j``, read straight off the grid."""
        rng = random.Random(39)
        for _ in range(12):
            d = rng.randint(1, 4)
            grid = rand_grid(rng, d + rng.randint(0, 1))
            powers = tuple(rng.randint(0, 3) for _ in range(d))
            copies = [i for i, n in enumerate(powers) for _ in range(n)]
            expected = 0
            for pairing in all_pairings(list(range(len(copies)))):
                groups = [sorted((copies[a], copies[b])) for a, b in pairing]
                if all(i != j for i, j in groups):
                    expected += math.prod(grid.kernel[i][j] for i, j in groups)
            weight = math.prod(math.factorial(n) for n in powers)
            assert weight * field_expectation(powers, grid) == expected


class TestFunctionalStar:
    def test_zero_density(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule.all_tuples(grid, 1)
        assert functional_star(Poly.zero(1), x(1, 1), rule, grid) == 0

    def test_constant_densities(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule((("p1",), ("p2",)), (Fraction(2), Fraction(3)))
        c1 = Poly.constant(Fraction(5), 1)
        c2 = Poly.constant(Fraction(7), 1)
        assert functional_star(c1, c2, rule, grid) == 35 * (2 + 3) ** 2

    def test_single_node_degenerates_to_field_star(self):
        rng = random.Random(35)
        grid = rand_grid(rng, 2)
        f, g = rand_poly(rng, 2), rand_poly(rng, 2)
        rule = QuadratureRule((("p1", "p2"),), (Fraction(1),))
        assert functional_star(f, g, rule, grid) == field_star(f, g, grid)

    def test_cross_kernel_sampling(self):
        # one variable, two nodes: the integrand couples through K(s, t)
        grid = grid2([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]], [5, 7])
        rule = QuadratureRule((("p1",), ("p2",)), (Fraction(1), Fraction(1)))
        total = functional_star(x(1, 1), x(1, 1), rule, grid)
        phi = {0: Fraction(5), 1: Fraction(7)}
        expected = sum(
            phi[a] * phi[b] + grid.hbar * grid.kernel[a][b]
            for a in range(2)
            for b in range(2)
        )
        assert total == expected

    @pytest.mark.parametrize(
        "nodes, weights, message",
        [((), (), "at least one node is required"),
         ((("p1",),), (1, 1), "one weight per node is required"),
         ((("p1",), ("p2",)), (1, math.nan), "weights must be finite"),
         ((("p1",), ("p1", "p2")), (1, 1), "all nodes must have the same arity")],
        ids=["no-nodes", "weight-count", "nan-weight", "mixed-arity"],
    )
    def test_rule_checks(self, nodes, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuadratureRule(nodes, weights)

    def test_unknown_sample_point_rejected(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule((("p1",), ("p3",)), (1, 1))
        with pytest.raises(ValueError, match="^unknown sample point 'p3'$"):
            functional_star(x(1, 1), x(1, 1), rule, grid)

    def test_densities_must_share_a_dimension(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule.all_tuples(grid, 1)
        with pytest.raises(ValueError, match="^densities must share a dimension$"):
            functional_star(x(1, 1), x(1, 2), rule, grid)

    def test_arity_checked(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule.all_tuples(grid, 1)
        with pytest.raises(ValueError, match="arity"):
            functional_star(x(1, 2), x(2, 2), rule, grid)

    def test_symbol_beyond_arity_rejected(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule.all_tuples(grid, 1)
        f = Poly.constant(CoeffElement.from_symbol(PropagatorSymbol("A", 1, 2)), 1)
        with pytest.raises(ValueError, match="arity"):
            functional_star(f, x(1, 1), rule, grid)

    def test_float_weights_refused_on_rational_grid(self):
        grid = grid2([[0, 1], [1, 0]], [1, 2])
        rule = QuadratureRule((("p1",), ("p2",)), (0.5, Fraction(1)))
        with pytest.raises(ValueError, match="rational mode cannot hold"):
            functional_star(x(1, 1), x(1, 1), rule, grid)

    def test_fraction_weights_become_floats_on_float_grid(self):
        grid = grid2([[0.5, 1.0], [-1.0, 0.25]], [3.0, -2.5], hbar=0.5, mode="float")
        nodes = (("p1",), ("p2",))
        exact = QuadratureRule(nodes, (Fraction(1, 3), Fraction(2, 7)))
        floats = QuadratureRule(nodes, (1 / 3, 2 / 7))
        f = x(1, 1) * x(1, 1)
        value = functional_star(f, x(1, 1), exact, grid)
        assert isinstance(value, float)
        assert value == functional_star(f, x(1, 1), floats, grid)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_oracle(self, seed):
        rng = random.Random(9000 + seed)
        dim = 1 + seed % 3
        order = (None, 0, 1)[seed // 3 % 3]
        symmetric = seed % 2 == 0
        f, g = rand_density(rng, dim), rand_density(rng, dim)
        size = dim + rng.randint(0, 2)
        points = [f"p{i}" for i in range(size)]
        kernel = [[rand_rational(rng) for _ in range(size)] for _ in range(size)]
        if symmetric:
            kernel = [[kernel[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
        field = [rand_rational(rng) for _ in range(size)]
        hbar = rand_rational(rng, span=2, den=3)
        # explicit nodes, one repeating a label; weights over distinct denominators
        nodes = [tuple(rng.choice(points) for _ in range(dim)) for _ in range(rng.randint(2, 4))]
        nodes[0] = (points[-1],) * dim
        dens = rng.sample([1, 2, 3, 5, 7], len(nodes))
        weights = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), q) for q in dens)

        exact = KernelGrid.make(points, kernel, field, hbar, "rational")
        rule = QuadratureRule(tuple(nodes), weights)
        assert functional_star(f, g, rule, exact, order) == functional_star_oracle(
            f, g, rule, exact, order
        )

        approx = KernelGrid.make(
            points,
            [[float(v) for v in row] for row in kernel],
            [float(v) for v in field],
            float(hbar),
            "float",
        )
        float_rule = QuadratureRule(tuple(nodes), tuple(float(w) for w in weights))
        value = functional_star(f, g, float_rule, approx, order)
        scale = functional_star_oracle(f, g, float_rule, approx, order, absolute=True)
        expected = functional_star_oracle(f, g, float_rule, approx, order)
        assert abs(value - expected) <= 1e-12 * scale


    @pytest.mark.parametrize("seed", range(18))
    def test_product_rule_matches_oracle(self, seed):
        """``all_tuples`` runs the factor-by-factor contraction; the oracle
        sums every node pair.  Densities of arity 2 and 3 carry ``x1*x2``
        against ``x1^2``, whose hbar^2 rows have two edges into one right
        component; order 0 leaves only the coefficient symbols' edges."""
        rng = random.Random(9100 + seed)
        dim = 1 + seed % 3
        order = (None, 0, 1)[seed // 3 % 3]
        f, g = rand_density(rng, dim), rand_density(rng, dim)
        if dim > 1:
            f, g = f + x(1, dim) * x(2, dim), g + x(1, dim) ** 2
        size = rng.randint(2, 3)
        points = [f"p{i}" for i in range(size)]
        kernel = [[rand_rational(rng) for _ in range(size)] for _ in range(size)]
        field = [rand_rational(rng) for _ in range(size)]
        hbar = rand_rational(rng, span=2, den=3)
        weight = Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([1, 5, 7]))

        exact = KernelGrid.make(points, kernel, field, hbar)
        rule = QuadratureRule.all_tuples(exact, dim, weight)
        value = functional_star(f, g, rule, exact, order)
        assert value == functional_star_oracle(f, g, rule, exact, order)
        # the same nodes listed explicitly form one factor
        assert functional_star(f, g, QuadratureRule(rule.nodes, rule.weights), exact, order) == value

        approx = KernelGrid.make(
            points,
            [[float(v) for v in row] for row in kernel],
            [float(v) for v in field],
            float(hbar),
            "float",
        )
        float_rule = QuadratureRule.all_tuples(approx, dim, float(weight))
        value = functional_star(f, g, float_rule, approx, order)
        scale = functional_star_oracle(f, g, float_rule, approx, order, absolute=True)
        expected = functional_star_oracle(f, g, float_rule, approx, order)
        assert isinstance(value, float)
        assert abs(value - expected) <= 1e-12 * scale


class TestCommutingDiagram:
    def _paths(self, f, g, grid, order=None):
        d = f.dim
        K_sym_matrix = PropagatorMatrix.family("K", d)
        symbolic_first = specialize(star2(f, g, K_sym_matrix, order), grid)

        K_numeric = PropagatorMatrix.from_entries(
            [[Fraction(v) for v in row] for row in grid.kernel]
        )
        numeric_star = star2(f, g, K_numeric, order)
        numeric_first = specialize(numeric_star, grid)

        tensor = star_tensor(f, g.relabel_blocks({0: 1}), K_sym_matrix, order)
        per_block = specialize(tensor, grid)
        return symbolic_first, numeric_first, per_block

    def test_rational_paths_agree_exactly(self):
        rng = random.Random(36)
        for _ in range(20):
            d = rng.randint(1, 4)
            grid = rand_grid(rng, d)
            f, g = rand_poly(rng, d), rand_poly(rng, d)
            a, b, c = self._paths(f, g, grid)
            assert a == b == c

    def test_float_paths_agree_to_tolerance(self):
        rng = random.Random(37)
        for _ in range(10):
            d = rng.randint(1, 3)
            grid = rand_grid(rng, d, mode="float")
            f, g = rand_poly(rng, d, max_degree=2, terms=2), rand_poly(rng, d, max_degree=2, terms=2)
            sym_val = field_star(f, g, grid)
            exact_kernel = PropagatorMatrix.from_entries(
                [[Fraction(v) for v in row] for row in grid.kernel]
            )
            exact = star2(f, g, exact_kernel).evaluate(
                lambda blk, i: Fraction(grid.field[i - 1]),
                lambda s: Fraction(0),
                Fraction(grid.hbar),
            )
            exact = float(exact)
            scale = max(abs(sym_val), abs(exact), 1.0)
            assert abs(sym_val - exact) <= 1e-12 * scale


def symbolic_first(op, grid, *args):
    """A field op the long way round: its engine over the symbol family
    ``K[K;i,j]``, then :func:`specialize`, so the kernel is substituted last.
    Returns the engine's polynomial and its specialized value."""
    if op == "star":
        f, g, order = args
        p = star2(f, g, PropagatorMatrix.family("K", f.dim), order)
    elif op == "poisson":
        f, g = args
        p = poisson_bracket(f, g, PropagatorMatrix.family("K", f.dim))
    elif op == "wick_power":
        p = wick_power(*args, PropagatorMatrix.family("K", grid.size))
    else:
        (powers,) = args
        d = len(powers)
        spec = WickMonomialSpec(powers, PropagatorMatrix.family("K", d, zero_diagonal=True),
                                PropagatorMatrix.family("K", d))
        p = Poly.constant(expectation_formula(spec), d)
    return p, specialize(p, grid)


def absolute_value(p, grid):
    """:func:`specialize` with every coefficient and grid number made
    non-negative: it bounds the sum of the magnitudes of the summands."""
    total = 0
    for vm, ce in p.items():
        for mono, q in ce.items():
            term = abs(q) * abs(grid.hbar) ** mono.hbar
            for sym, e in mono.symbols:
                term *= abs(grid.kernel[sym.row - 1][sym.col - 1]) ** e
            for (_, i), e in vm.items:
                term *= abs(grid.field[i - 1]) ** e
            total += term
    return total


NUMERIC_FIRST = {
    "star": lambda grid, f, g, order: field_star(f, g, grid, order),
    "poisson": lambda grid, f, g: field_poisson(f, g, grid),
    "wick_power": lambda grid, index, power: field_wick_power(index, power, grid),
    "expectation": lambda grid, powers: field_expectation(powers, grid),
}


def field_case(rng, op, d):
    """Arguments of ``op`` in ``d`` variables.  Star and bracket densities
    carry coefficients in ``K[K;i,j]`` of their own, stored as ``--sym K``
    stores them (lower index first), and in two other families."""
    if op in ("star", "poisson"):
        f, g = rand_density(rng, d), rand_density(rng, d)
        i, j = sorted((rng.randint(1, d), rng.randint(1, d)))
        f = f + Poly.constant(CoeffElement.from_symbol(PropagatorSymbol("K", i, j)), d)
        g = g * (CoeffElement.one() + CoeffElement.from_symbol(PropagatorSymbol("K", j, i)))
        return (f, g, rng.choice([None, 0, 1, 2])) if op == "star" else (f, g)
    if op == "wick_power":
        return rng.randint(1, d), rng.randint(0, 6)
    return (tuple(rng.randint(0, 3) for _ in range(d)),)


class TestNumericFirst:
    """The field ops run their engines on the grid's kernel numbers; the
    engines over the symbol family, specialized afterwards, are the oracle."""

    @pytest.mark.parametrize("op", NUMERIC_FIRST)
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_matches_symbolic_first(self, op, mode):
        rng = random.Random(f"{op}-{mode}")
        for _ in range(12):
            d = rng.randint(1, 3)
            grid = rand_grid(rng, d + rng.randint(0, 2), mode)
            args = field_case(rng, op, d)
            value = NUMERIC_FIRST[op](grid, *args)
            p, expected = symbolic_first(op, grid, *args)
            if mode == "rational":
                assert type(value) is Fraction and value == expected
            else:
                assert isinstance(value, float)
                assert abs(value - expected) <= 1e-12 * absolute_value(p, grid)

    def test_cli_sym_densities_match_symbolic_first(self, tmp_path):
        rng = random.Random(40)
        for _ in range(6):
            grid = rand_grid(rng, 3)
            path = tmp_path / "grid.json"
            path.write_text(json.dumps(grid.to_json()))
            texts = ["x1*x2^2 + K[K;2,1]*x3", "K[K;1,3]*hbar*x2 + x3^2*x1"]
            f, g = (parse(t, 3) for t in texts)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["field-star", "--grid", str(path), *texts]) == 0
            assert Fraction(out.getvalue()) == symbolic_first("star", grid, f, g, None)[1]

    @pytest.mark.parametrize("op", [field_star, field_poisson], ids=lambda op: op.__name__)
    def test_more_variables_than_sample_points_refused(self, op):
        # x1 at dimension 3 uses only the first kernel entry, and specialize
        # would answer; the dimension decides.
        grid = grid2([[1, 2], [3, 4]], [5, 6])
        with pytest.raises(ValueError, match="^more variables than sample points$"):
            op(x(1, 3), x(1, 3), grid)


class TestFieldWickTheorem:
    def test_two_kernel_specialization_reproduces_field_star(self):
        rng = random.Random(38)
        for _ in range(8):
            d = rng.randint(1, 3)
            grid_a = rand_grid(rng, d)
            kernel_b = [[rand_rational(rng) for _ in range(d)] for _ in range(d)]
            f, g = rand_poly(rng, d, max_degree=2, terms=2), rand_poly(rng, d, max_degree=2, terms=2)
            K = PropagatorMatrix.family("K", d)
            Kp = PropagatorMatrix.family("P", d)
            terms = change_propagator([f, g], K, Kp)
            symbolic = reexpand(terms, [f, g], Kp)
            kernels = {"K": grid_a.kernel, "P": kernel_b}
            value = symbolic.evaluate(
                lambda block, i: grid_a.field[i - 1],
                lambda sym: kernels[sym.family][sym.row - 1][sym.col - 1],
                grid_a.hbar,
            )
            assert value == field_star(f, g, grid_a)
