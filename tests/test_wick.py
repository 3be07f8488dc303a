import math
import random
import warnings
from fractions import Fraction

import pytest

from starwick import (
    CoeffElement,
    CoeffMonomial,
    Poly,
    PropagatorMatrix,
    PropagatorSymbol,
    WickMonomialSpec,
    change_propagator,
    enumerate_adjacency_by_rowsums,
    expectation_formula,
    expectation_oracle,
    is_admissible,
    reexpand,
    reexpand_wick,
    star_multi,
    wick_monomial_star,
    wick_power,
    wick_theorem_expand,
    wick_unpower,
)

import starwick.wick
from starwick.cli import main
from starwick.wick import _MAX_EXPECT_POWER, _expectation_text, _hermite_terms

from helpers import expectation_by_matrices, kan_moment, rand_entry, rand_matrix, rand_rational

from test_combinat import positive_sequences


def x(i, d):
    return Poly.variable(i, d)


def K_sym(i, j, family="K"):
    return CoeffElement.from_symbol(PropagatorSymbol(family, i, j))


def hb(k=1):
    return CoeffElement.hbar(k)


def spec_for(powers, product_family="P"):
    d = len(powers)
    return WickMonomialSpec(
        tuple(powers),
        PropagatorMatrix.family("K", d, zero_diagonal=True),
        PropagatorMatrix.family(product_family, d),
    )


class TestWickPower:
    def test_low_powers(self):
        K = PropagatorMatrix.family("K", 1)
        assert wick_power(1, 0, K) == Poly.one(1)
        assert wick_power(1, 1, K) == x(1, 1)
        assert wick_power(1, 2, K) == x(1, 1) ** 2 + Poly.constant(hb() * K_sym(1, 1), 1)

    def test_fourth_power(self):
        K = PropagatorMatrix.family("K", 1)
        expected = (
            x(1, 1) ** 4
            + x(1, 1) ** 2 * (hb() * K_sym(1, 1) * 6)
            + Poly.constant(hb(2) * K_sym(1, 1) ** 2 * 3, 1)
        )
        assert wick_power(1, 4, K) == expected

    def test_equals_iterated_star_power(self):
        K = PropagatorMatrix.family("K", 1)
        for power in range(1, 11):
            assert wick_power(1, power, K) == star_multi([x(1, 1)] * power, K)

    def test_hermite_recurrence(self):
        K = PropagatorMatrix.family("K", 1)
        diag = hb() * K_sym(1, 1)
        for power in range(1, 10):
            lhs = wick_power(1, power + 1, K)
            rhs = x(1, 1) * wick_power(1, power, K) + wick_power(1, power - 1, K) * (
                diag * power
            )
            assert lhs == rhs

    def test_derivative_rule(self):
        K = PropagatorMatrix.family("K", 2)
        for power in range(1, 11):
            lhs = wick_power(2, power, K).derivative(2)
            assert lhs == wick_power(2, power - 1, K) * power

    def test_index_checked(self):
        with pytest.raises(ValueError):
            wick_power(3, 2, PropagatorMatrix.family("K", 2))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_closed_form_coefficients(self, sign):
        """The term ratio gives ``c_k = p! / (2^k k! (p-2k)!)``, here on a
        diagonal entry with several monomials."""
        diag = hb(2) * K_sym(1, 1) * 2 + Fraction(3, 2)
        K = PropagatorMatrix.from_entries([[diag]])
        for power in (0, 1, 7, 30, 41):
            expected = [
                (CoeffElement({CoeffMonomial(hbar=k): Fraction(
                    sign**k * math.factorial(power),
                    2**k * math.factorial(k) * math.factorial(power - 2 * k))}) * diag**k,
                 power - 2 * k)
                for k in range(power // 2 + 1)
            ]
            assert _hermite_terms(1, power, K, sign) == expected

    def test_cap_admits_the_largest_power(self):
        K, p = PropagatorMatrix.family("K", 1), 2 * _MAX_EXPECT_POWER + 1
        text = str(wick_power(1, p, K))
        assert text.startswith(f"x1^{p} + {p * (p - 1) // 2}*hbar*K[K;1,1]*x1^{p - 2} + ")
        assert text.endswith(f"*hbar^{_MAX_EXPECT_POWER}*K[K;1,1]^{_MAX_EXPECT_POWER}*x1")
        assert len(wick_unpower(1, p, K)) == _MAX_EXPECT_POWER + 1

    @pytest.mark.parametrize("power", [2 * _MAX_EXPECT_POWER + 2, 99999999999])
    def test_huge_power_refused_by_the_cap(self, power):
        K = PropagatorMatrix.family("K", 1)
        for expand in (wick_power, wick_unpower):
            with pytest.raises(ValueError, match=f"exceeds the Hermite cap of {_MAX_EXPECT_POWER}"):
                expand(1, power, K)


class TestWickUnpower:
    def test_square(self):
        K = PropagatorMatrix.family("K", 1)
        terms = wick_unpower(1, 2, K)
        assert terms == [
            (CoeffElement.one(), 2),
            (CoeffElement({CoeffMonomial(hbar=1): Fraction(-1)}) * K_sym(1, 1), 0),
        ]

    def test_first_power_is_itself(self):
        K = PropagatorMatrix.family("K", 1)
        assert wick_unpower(1, 1, K) == [(CoeffElement.one(), 1)]

    def test_round_trip(self):
        K = PropagatorMatrix.family("K", 1)
        for power in range(11):
            rebuilt = Poly.zero(1)
            for coeff, degree in wick_unpower(1, power, K):
                rebuilt = rebuilt + wick_power(1, degree, K) * coeff
            assert rebuilt == x(1, 1) ** power


class TestWickMonomialStar:
    def test_coordinates(self):
        spec = spec_for((1, 1))
        assert wick_monomial_star(spec) == x(1, 2) * x(2, 2) + Poly.constant(
            hb() * K_sym(1, 2, "P"), 2
        )

    def test_squares_with_zero_diagonal_ordering(self):
        spec = spec_for((2, 2))
        result = wick_monomial_star(spec)
        expected = (
            x(1, 2) ** 2 * x(2, 2) ** 2
            + x(1, 2) * x(2, 2) * (hb() * K_sym(1, 2, "P") * 4)
            + Poly.constant(hb(2) * K_sym(1, 2, "P") ** 2 * 2, 2)
        )
        assert result == expected

    def test_single_wick_power_unchanged(self):
        d = 2
        ordering = PropagatorMatrix.family("K", d)
        spec = WickMonomialSpec((2, 0), ordering, PropagatorMatrix.family("P", d))
        assert wick_monomial_star(spec) == wick_power(1, 2, ordering)


class TestExpectation:
    def test_single_pair(self):
        assert expectation_formula(spec_for((1, 1))) == K_sym(1, 2, "P")

    def test_isserlis_sum(self):
        expected = (
            K_sym(1, 2, "P") * K_sym(3, 4, "P")
            + K_sym(1, 3, "P") * K_sym(2, 4, "P")
            + K_sym(1, 4, "P") * K_sym(2, 3, "P")
        )
        assert expectation_formula(spec_for((1, 1, 1, 1))) == expected

    def test_inadmissible_vanishes(self):
        assert expectation_formula(spec_for((3, 1))).is_zero()

    def test_vanishing_iff_admissible(self):
        for n in positive_sequences(8, 4):
            nonzero = not expectation_formula(spec_for(n)).is_zero()
            assert nonzero == is_admissible(n), n

    @pytest.mark.parametrize("powers", [(2.5, 1.5), (2.0, 2), (True, True), ("1", "1")], ids=str)
    def test_non_integer_powers_rejected(self, powers):
        """Powers are refused unless integers, not truncated or read as 1."""
        with pytest.raises(ValueError, match="integers"):
            spec_for(powers)

    def test_cap_admits_the_largest_total_power(self):
        h = _MAX_EXPECT_POWER
        assert h >= 20  # the benchmark pools reach 9 and the other tests stay below 20
        coeff = CoeffElement({CoeffMonomial.make(0, {PropagatorSymbol("P", 1, 2): h}):
                              Fraction(1, math.factorial(h))})
        assert expectation_formula(spec_for((h, h))) == coeff
        assert expectation_formula(spec_for((h + 1, h - 1))).is_zero()

    @pytest.mark.parametrize("n", [(_MAX_EXPECT_POWER, _MAX_EXPECT_POWER, 1, 1), (3000, 3000),
                                   (99999999999, 99999999999)], ids=str)
    def test_huge_admissible_entries_refused_by_the_cap(self, n):
        with pytest.raises(ValueError, match=f"exceeds the expectation cap of {_MAX_EXPECT_POWER}"):
            expectation_formula(spec_for(n))

    # The bound on the count (the product of each row's most moves) is 6 for
    # (2, 2, 2, 2), the count itself, and 30 for (2, 2, 2, 2, 2), above its 22.
    @pytest.mark.parametrize("n", [(2, 2, 2, 2), (2, 2, 2, 2, 2)], ids=str)
    def test_matrix_budget_admits_the_exact_count(self, monkeypatch, n):
        # Family entries give one term per matrix, so the matrices are counted
        # and refused above the budget before the fold builds any term.
        count = len(enumerate_adjacency_by_rowsums(n))
        expected = expectation_formula(spec_for(n))
        assert len(list(expected.items())) == count
        monkeypatch.setattr(starwick.wick, "_MAX_MATRICES", count)
        assert expectation_formula(spec_for(n)) == expected
        monkeypatch.setattr(starwick.wick, "_MAX_MATRICES", count - 1)
        with pytest.raises(ValueError,
                           match=f"^{count} terms exceed the matrix budget of {count - 1}$"):
            expectation_formula(spec_for(n))

    @pytest.mark.parametrize(
        "entry",
        [Fraction(2, 3), CoeffElement.from_symbol(PropagatorSymbol("S", 1, 2)),
         CoeffElement.hbar()],
        ids=["numeric", "shared-symbol", "hbar"],
    )
    def test_matrix_budget_spares_entries_whose_terms_merge(self, monkeypatch, entry):
        monkeypatch.setattr(starwick.wick, "_MAX_MATRICES", 0)
        n = (2, 2, 2, 2)
        spec = WickMonomialSpec(n, PropagatorMatrix.family("K", 4, zero_diagonal=True),
                                PropagatorMatrix.from_entries([[entry] * 4] * 4))
        assert expectation_formula(spec) == expectation_by_matrices(spec)

    def test_row_texts_do_not_leak_between_families_or_layers(self):
        """The row texts are memoized by family, layer and row: in one
        process, one sequence under two families, its permutations, and
        sequences of other lengths, on which a row falls at another layer,
        each write the text of their own packed sum."""
        starwick.wick._ROW_TEXTS.clear()
        rng = random.Random(3031)
        n = (2, 1, 3, 0, 2, 2)
        sequences = [n, n + (0,), (0,) + n, n[1:], (2, 2), (0, 2, 2)] + [
            tuple(rng.sample(n, len(n))) for _ in range(6)]
        for m in sequences:
            for family in ("K", "P", "K"):
                spec = WickMonomialSpec(m, PropagatorMatrix.zero(len(m)),
                                        PropagatorMatrix.family(family, len(m)))
                assert _expectation_text(m, family) == str(expectation_formula(spec)), (m, family)

    def test_powers_stored_as_tuple(self):
        spec = WickMonomialSpec([1, 1], PropagatorMatrix.family("K", 2, zero_diagonal=True),
                                PropagatorMatrix.family("P", 2))
        assert spec.powers == (1, 1)
        assert expectation_formula(spec) == K_sym(1, 2, "P")


def general_spec(rng, n, hbar, symmetric=False):
    """Powers ``n`` under a ``from_entries`` product matrix whose entries
    each add two random entries, so most have several terms."""
    d = len(n)
    rows = [
        [rand_entry(rng, i, j, hbar) + rand_entry(rng, j, i, hbar) for j in range(1, d + 1)]
        for i in range(1, d + 1)
    ]
    if symmetric:
        for i in range(d):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return WickMonomialSpec(
        tuple(n),
        PropagatorMatrix.family("K", d, zero_diagonal=True),
        PropagatorMatrix.from_entries(rows),
    )


def nonzero_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))


class TestExpectationGeneralEntries:
    @pytest.mark.parametrize(
        "n",
        [(0,), (2,), (3,), (1, 1), (2, 2), (0, 2, 0), (2, 1, 1), (1, 1, 1), (3, 1, 2),
         (1, 0, 1, 2), (2, 2, 2, 2), (1, 1, 1, 1, 2), (0, 1, 2, 1, 0, 2)],
        ids=str,
    )
    def test_matches_kan_moment(self, n):
        """Kan's formula is the only route that checks hbar-carrying entries."""
        rng = random.Random(str(n))
        for symmetric in (False, True):
            spec = general_spec(rng, n, hbar=True, symmetric=symmetric)
            d = len(n)
            upper = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
            symbols = set().union(*(spec.product.entry(i, j).symbols() for i, j in upper))
            values = {sym: nonzero_rational(rng) for sym in sorted(symbols)}
            hbar = nonzero_rational(rng)
            S = [[Fraction(0)] * d for _ in range(d)]
            for i, j in upper:
                S[i - 1][j - 1] = S[j - 1][i - 1] = spec.product.entry(i, j).substitute(values, hbar)
            scale = math.prod(math.factorial(v) for v in n)
            got = expectation_formula(spec).substitute(values, hbar) * scale
            assert got == kan_moment(n, S), (n, symmetric)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        while True:
            n = tuple(rng.randint(0, 3) for _ in range(rng.randint(2, 5)))
            if 0 < sum(n) <= 6 and sum(n) % 2 == 0 and 2 * max(n) <= sum(n):
                break
        spec = general_spec(rng, n, hbar=False, symmetric=seed % 2 == 0)
        scale = math.prod(math.factorial(v) for v in n)
        assert expectation_oracle(spec) == expectation_formula(spec) * scale, n

    def test_cancelling_terms_are_dropped(self):
        # K12 K34 + K13 K24 + K14 K23 with K12 = K13 = K34 = A, K24 = -A, K14 = K23 = 0
        A = K_sym(1, 2, "A")
        z = Fraction(0)
        rows = [[z, A, A, z], [A, z, z, -A], [A, z, z, A], [z, -A, A, z]]
        spec = WickMonomialSpec(
            (1, 1, 1, 1),
            PropagatorMatrix.family("K", 4, zero_diagonal=True),
            PropagatorMatrix.from_entries(rows),
        )
        assert expectation_formula(spec).is_zero()
        assert expectation_oracle(spec).is_zero()

    @pytest.mark.parametrize("n", [(1, 1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 1, 2, 2), (1, 2, 2, 2, 3)])
    def test_family_terms_are_the_matrices(self, n):
        expected = {}
        for matrix in enumerate_adjacency_by_rowsums(n):
            items = list(matrix.upper_items())
            mono = CoeffMonomial.make(0, {PropagatorSymbol("P", i, j): v for i, j, v in items})
            expected[mono] = Fraction(1, math.prod(math.factorial(v) for *_, v in items))
        assert dict(expectation_formula(spec_for(n)).items()) == expected

    def test_multiplies_no_coefficient_elements(self, monkeypatch):
        n = (1, 2, 2, 2, 3, 3, 3)
        spec = spec_for(n)

        def refuse(*args):
            raise AssertionError("coefficient arithmetic inside expectation_formula")

        for name in ("__add__", "__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(CoeffElement, name, refuse)
        value = expectation_formula(spec)
        monkeypatch.undo()
        assert len(dict(value.items())) == len(enumerate_adjacency_by_rowsums(n))


def oracle_case(kind, length, rng):
    """Powers of the given length, entries 0..3 and total at most 10, under
    a product matrix of one kind:
    ``general``, multi-monomial, fractional and hbar-bearing entries;
    ``family``, a symmetric symbol family;
    ``shared``, symmetric entries combining two symbols that every slot
    shares, so many matrices fall on one monomial;
    ``cancel``, numeric entries in -1, 0, 1, so matrices cancel;
    ``wide``, two monomials such as ``hbar^3*S^4/2 - hbar*S'`` on symbols
    that every slot shares, so the packed exponents of a product pile up.
    Three cases in four are admissible."""
    admissible = rng.randrange(4) > 0
    while True:
        n = tuple(rng.randint(0, 3) for _ in range(length))
        if sum(n) <= 10 and (not admissible or (sum(n) % 2 == 0 and 2 * max(n) <= sum(n))):
            break
    if kind == "general":
        return general_spec(rng, n, hbar=True)
    if kind == "family":
        product = PropagatorMatrix.family("P", length, symmetric=True)
    else:
        shared = [CoeffElement.from_symbol(PropagatorSymbol("S", 1, k)) for k in (1, 2)]
        rows = [[Fraction(0)] * length for _ in range(length)]
        for i in range(length):
            for j in range(i + 1, length):
                if kind == "shared":
                    entry = sum((sym * rand_entry(rng, 1, 1, hbar=False) for sym in shared),
                                CoeffElement.zero())
                elif kind == "wide":
                    entry = (hb(rng.randint(0, 3)) * shared[0] ** rng.randint(1, 4)
                             * rand_rational(rng) + hb() * shared[1] * rand_rational(rng))
                else:
                    entry = Fraction(rng.choice([-1, 0, 1]))
                rows[i][j] = rows[j][i] = entry
        product = PropagatorMatrix.from_entries(rows)
    return WickMonomialSpec(n, PropagatorMatrix.family("K", length, zero_diagonal=True), product)


class TestExpectationByMatrices:
    @pytest.mark.parametrize("length", range(1, 7))
    @pytest.mark.parametrize("kind", ["general", "family", "shared", "cancel", "wide"])
    def test_fold_matches_per_matrix_sum(self, kind, length):
        rng = random.Random(f"{kind}-{length}")
        for _ in range(4):
            spec = oracle_case(kind, length, rng)
            assert expectation_formula(spec) == expectation_by_matrices(spec), spec.powers

    @pytest.mark.parametrize(
        "n, expected",
        [((0,), CoeffElement.one()), ((0, 0), CoeffElement.one()),
         ((2, 0, 2), K_sym(1, 3, "P") ** 2 * Fraction(1, 2))],
        ids=str,
    )
    def test_edge_cases(self, n, expected):
        assert expectation_formula(spec_for(n)) == expected
        assert expectation_by_matrices(spec_for(n)) == expected


def engine_scale_sequences(count=3):
    """``(4,) * 6`` and ``count`` seeded admissible sequences of 5-6 entries
    in 1..4 with a total of at least 16, twice the largest other bridge test's."""
    rng, out = random.Random(4600), [(4,) * 6]
    while len(out) <= count:
        n = tuple(rng.randint(1, 4) for _ in range(rng.randint(5, 6)))
        if is_admissible(n) and sum(n) >= 16 and n not in out:
            out.append(n)
    return out


ENGINE_SCALE = engine_scale_sequences()


class TestExpectationOracle:
    def test_single_pair(self):
        assert expectation_oracle(spec_for((1, 1))) == K_sym(1, 2, "P")

    def test_isserlis_matches_formula(self):
        n = (1, 1, 1, 1)
        assert expectation_oracle(spec_for(n)) == expectation_formula(spec_for(n))

    def test_squares_carry_power_factorials(self):
        spec = spec_for((2, 2))
        assert expectation_oracle(spec) == K_sym(1, 2, "P") ** 2 * 2
        assert expectation_oracle(spec) == expectation_formula(spec) * 4

    def test_bridge_scaling(self):
        for n in positive_sequences(8, 4):
            if not is_admissible(n):
                continue
            spec = spec_for(n)
            scale = math.prod(math.factorial(v) for v in n)
            assert expectation_oracle(spec) == expectation_formula(spec) * scale, n

    @pytest.mark.parametrize("n", ENGINE_SCALE, ids=str)
    def test_bridge_at_engine_scale(self, n):
        """The oracle's constant ``hbar^m`` coefficient, read off the keys of
        the packed fold, on products far past ``test_bridge_scaling``'s
        total of 8: six 4s and seeded sequences of 5-6 entries in 1..4."""
        scale = math.prod(math.factorial(v) for v in n)
        assert expectation_oracle(spec_for(n)) == expectation_formula(spec_for(n)) * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_ordering_is_the_zero_diagonal_family(self, seed):
        """A Wick power reads only its ordering's diagonal, so the zero
        matrix, which ``expect`` and ``expect-oracle`` build, gives what the
        zero-diagonal family gives."""
        rng = random.Random(2200 + seed)
        for _ in range(4):
            n = ()
            while not (n and is_admissible(n)):
                n = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
            n += (0,) * (seed % 2)
            product = PropagatorMatrix.family("P", len(n), symmetric=seed % 2 == 0)
            family = PropagatorMatrix.family("K", len(n), zero_diagonal=True)
            assert expectation_oracle(WickMonomialSpec(n, PropagatorMatrix.zero(len(n)), product)) \
                == expectation_oracle(WickMonomialSpec(n, family, product)), n

    @pytest.mark.parametrize("n, text", [
        ("1,1,2,2", "2*K[K;1,2]*K[K;3,4]^2 + 4*K[K;1,3]*K[K;2,4]*K[K;3,4]"
                    " + 4*K[K;1,4]*K[K;2,3]*K[K;3,4]"),
        ("2,2,2", "8*K[K;1,2]*K[K;1,3]*K[K;2,3]"),
    ])
    def test_oracle_command_text(self, capsys, n, text):
        assert main(["expect-oracle", "--n", n]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_requires_zero_diagonal_ordering(self):
        d = 2
        spec = WickMonomialSpec(
            (2, 2), PropagatorMatrix.family("K", d), PropagatorMatrix.family("P", d)
        )
        with pytest.raises(ValueError, match="zero diagonal"):
            expectation_oracle(spec)

    def test_odd_total_vanishes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = expectation_oracle(spec_for((2, 1)))
        assert value.is_zero()


class TestWickTheoremExpand:
    def test_equal_matrices_leave_identity(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        terms = wick_theorem_expand([x(1, d), x(2, d)], K, K)
        assert len(terms) == 1
        assert terms[0].coeff == CoeffElement.one()
        assert terms[0].orders == (0, 0)
        assert terms[0].matrix.is_zero()

    def test_zero_target_recovers_plain_expansion(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        zero = PropagatorMatrix.zero(d)
        terms = wick_theorem_expand([x(1, d) ** 2, x(2, d) ** 2], K, zero)
        by_k = {sum(t.orders) // 2: t for t in terms}
        assert by_k[0].coeff == CoeffElement.one()
        assert by_k[1].coeff == hb() * K_sym(1, 2) and by_k[1].orders == (1, 1)
        assert by_k[2].coeff == hb(2) * K_sym(1, 2) ** 2 * Fraction(1, 2)
        assert by_k[2].orders == (2, 2)
        # each term's weight is multinomial/k! times the amplitude of its matrix
        for term in terms:
            k = sum(term.orders) // 2
            amplitude = CoeffElement.one()
            for i, j, mult in term.matrix.upper_items():
                amplitude = amplitude * K_sym(i, j) ** mult
            from starwick import multinomial

            weight = Fraction(multinomial(k, term.matrix.upper_values()), math.factorial(k))
            assert term.coeff == CoeffElement({CoeffMonomial(hbar=k): weight}) * amplitude

    def test_zero_source_gives_inversion_coefficients(self):
        # star factors of distinct coordinates, all propagator entries equal:
        # collapsing the variables turns the expansion into the Wick-power
        # inversion, so the layer sums must match its closed coefficients
        c = CoeffElement.from_symbol(PropagatorSymbol("c", 1, 1))
        for count in (2, 3, 4):
            entries = [
                [c if i != j else CoeffElement.zero() for j in range(count)]
                for i in range(count)
            ]
            Kp = PropagatorMatrix.from_entries(entries)
            zero = PropagatorMatrix.zero(count)
            factors = [x(i, count) for i in range(1, count + 1)]
            terms = wick_theorem_expand(factors, zero, Kp)
            for k in range(count // 2 + 1):
                layer = CoeffElement.zero()
                for term in terms:
                    if sum(term.orders) == 2 * k:
                        layer = layer + term.coeff
                closed = Fraction(
                    math.factorial(count),
                    2**k * math.factorial(k) * math.factorial(count - 2 * k),
                ) * Fraction(-1) ** k
                expected = CoeffElement({CoeffMonomial(hbar=k): closed}) * c**k
                assert layer == expected, (count, k)

    def test_amplitude_matrices_do_not_depend_on_families(self):
        d = 3
        factors = [x(1, d) ** 2, x(2, d), x(3, d) ** 3]
        runs = []
        for fam1, fam2 in (("A", "B"), ("C", "D")):
            terms = wick_theorem_expand(
                factors,
                PropagatorMatrix.family(fam1, d),
                PropagatorMatrix.family(fam2, d),
            )
            runs.append({t.matrix for t in terms})
        assert runs[0] == runs[1]

    def test_multi_variable_factor_rejected(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        with pytest.raises(ValueError, match="depend only"):
            wick_theorem_expand([x(2, d), x(2, d)], K, K)

    def test_reexpansion_matches_star_multi(self):
        rng = random.Random(23)
        for _ in range(10):
            d = rng.randint(1, 3)
            K, Kp = rand_matrix(rng, d), rand_matrix(rng, d)
            factors = []
            for i in range(1, d + 1):
                f = Poly.zero(d)
                for power in range(rng.randint(1, 3) + 1):
                    f = f + x(i, d) ** power * Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                if f.is_zero():
                    f = x(i, d)
                factors.append(f)
            terms = wick_theorem_expand(factors, K, Kp, 4)
            assert reexpand_wick(terms, factors, Kp, 4) == star_multi(factors, K, 4)

    def test_agrees_with_generic_change_of_propagator(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        Kp = PropagatorMatrix.family("P", d)
        factors = [x(1, d) ** 2, x(2, d) ** 2]
        wick_terms = wick_theorem_expand(factors, K, Kp)
        generic_terms = change_propagator(factors, K, Kp)
        lhs = reexpand_wick(wick_terms, factors, Kp)
        rhs = reexpand(generic_terms, factors, Kp)
        assert lhs == rhs == star_multi(factors, K)

    def test_negative_order_is_refused(self):
        K = PropagatorMatrix.family("K", 2)
        with pytest.raises(ValueError, match="non-negative"):
            wick_theorem_expand([x(1, 2), x(2, 2)], K, K, order=-1)

    def test_reexpand_wick_refuses_negative_order(self):
        K = PropagatorMatrix.family("K", 2)
        factors = [x(1, 2), x(2, 2)]
        terms = wick_theorem_expand(factors, K, K)
        with pytest.raises(ValueError, match="non-negative"):
            reexpand_wick(terms, factors, K, order=-1)
