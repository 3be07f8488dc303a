import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from starwick import (
    AdjacencyMatrix,
    PropagatorMatrix,
    TwoRowSSYT,
    WickMonomialSpec,
    admissible_witness,
    enumerate_adjacency_by_degree,
    enumerate_adjacency_by_rowsums,
    expectation_formula,
    is_admissible,
    matching_to_involution,
    multinomial,
    ssyt_two_row,
)
import starwick.combinat


def positive_sequences(max_total, max_len):
    for d in range(1, max_len + 1):
        for total in range(d, max_total + 1):
            for cuts in itertools.combinations(range(1, total), d - 1):
                bounds = (0,) + cuts + (total,)
                yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestAdjacencyMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix.from_rows([[1, 0], [0, 0]])  # nonzero diagonal
        with pytest.raises(ValueError):
            AdjacencyMatrix.from_rows([[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(ValueError):
            AdjacencyMatrix.from_rows([[0, -1], [-1, 0]])

    @pytest.mark.parametrize("rows", [
        [1, 2], 3, [[0, None], [None, 0]], [[0, 1.7], [1.7, 0]], [[0, 1.0], [1.0, 0]],
        [[0, True], [True, 0]], [[0, "1"], ["1", 0]], [(0, 1), (1, 0)], ((0, 1), [1, 0]),
    ])
    def test_from_rows_takes_only_lists_of_ints(self, rows):
        with pytest.raises(ValueError, match="list of rows of integers"):
            AdjacencyMatrix.from_rows(rows)

    def test_from_rows_keeps_integer_rows(self):
        assert AdjacencyMatrix.from_rows([[0, 1], [1, 0]]).rows == ((0, 1), (1, 0))

    def test_degree_and_row_sums(self):
        m = AdjacencyMatrix.from_rows([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
        assert m.degree() == 6
        assert m.row_sums() == (3, 2, 1)
        assert list(m.upper_items()) == [(1, 2, 2), (1, 3, 1)]
        assert m.upper_values() == [2, 1, 0]


class TestMultinomial:
    def test_examples(self):
        assert multinomial(2, [1, 1]) == 2
        assert multinomial(3, [3]) == 1
        assert multinomial(4, [2, 1, 1]) == 12

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            multinomial(3, [1, 1])
        with pytest.raises(ValueError):
            multinomial(2, [3, -1])


class TestEnumerateByDegree:
    def test_two_vertices_single_slot(self):
        for k in range(4):
            mats = enumerate_adjacency_by_degree(2, 2 * k)
            assert len(mats) == 1
            assert mats[0].rows[0][1] == k

    def test_three_vertices_degree_two(self):
        mats = enumerate_adjacency_by_degree(3, 2)
        assert len(mats) == 3
        # ascending row-major lexicographic order on the upper triangle
        assert [m.upper_values() for m in mats] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_zero_degree(self):
        assert enumerate_adjacency_by_degree(2, 0) == [AdjacencyMatrix.zero(2)]

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_adjacency_by_degree(3, 3)

    def test_row_caps_filter(self):
        capped = enumerate_adjacency_by_degree(4, 4, row_caps=[1, 1, 1, 1])
        assert len(capped) == 3  # the perfect matchings
        assert all(m.row_sums() == (1, 1, 1, 1) for m in capped)

    def test_caps_above_degree_cost_nothing(self):
        start = time.perf_counter()
        capped = enumerate_adjacency_by_degree(3, 2, row_caps=[10**6] * 3)
        assert time.perf_counter() - start < 0.5
        assert capped == enumerate_adjacency_by_degree(3, 2)

    @pytest.mark.parametrize("caps", [[1, -1, 1], [-2, 0, 0]])
    def test_negative_row_caps_rejected(self, caps):
        with pytest.raises(ValueError, match="row_caps must be non-negative"):
            enumerate_adjacency_by_degree(3, 2, row_caps=caps)

    @pytest.mark.parametrize("caps", [[1, 1], [1, 1, 1, 1], []])
    def test_row_caps_of_the_wrong_length_rejected(self, caps):
        with pytest.raises(ValueError) as refused:
            enumerate_adjacency_by_degree(3, 2, row_caps=caps)
        assert str(refused.value) == "row_caps length must match the matrix size"

    @pytest.mark.parametrize(
        "d, degree, caps",
        [(2, 2.0, None), (2.0, 2, None), (2, 4, [1.5, 2]), (2, 2, [True, True]), (2, 2, ["1", 1])],
        ids=str,
    )
    def test_non_integer_sizes_rejected(self, d, degree, caps):
        """A float, string or bool size is refused rather than truncated or read as 1."""
        with pytest.raises(ValueError, match="integer"):
            enumerate_adjacency_by_degree(d, degree, row_caps=caps)

    def test_single_vertex(self):
        # The slack vertex of a 1 x 1 matrix needs its cap minus the degree:
        # zero at degree 0, negative (no matrix) at degree 2.
        assert enumerate_adjacency_by_degree(1, 0) == [AdjacencyMatrix.zero(1)]
        assert enumerate_adjacency_by_degree(1, 2) == []


class TestEnumerateByRowsums:
    def test_examples(self):
        assert len(enumerate_adjacency_by_rowsums((1, 1, 1, 1))) == 3
        assert enumerate_adjacency_by_rowsums((1, 1, 1)) == []
        assert enumerate_adjacency_by_rowsums((-1, -1)) == []
        only = enumerate_adjacency_by_rowsums((2, 2))
        assert len(only) == 1 and only[0].rows[0][1] == 2

    def test_matching_counts_follow_double_factorial(self):
        for m in range(1, 6):
            count = len(enumerate_adjacency_by_rowsums((1,) * (2 * m)))
            expected = math.prod(range(1, 2 * m, 2))
            assert count == expected

    def test_canonical_order(self):
        mats = enumerate_adjacency_by_rowsums((1, 1, 1, 1))
        uppers = [m.upper_values() for m in mats]
        assert uppers == sorted(uppers)

    @pytest.mark.parametrize(
        "n, rows",
        [
            ((0,), [[[0]]]),
            ((2,), None),
            ((0, 0, 0), [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]]),
            ((2, 0, 2), [[[0, 0, 2], [0, 0, 0], [2, 0, 0]]]),
            ((-1, 1), None),
        ],
        ids=str,
    )
    def test_edge_cases(self, n, rows):
        assert [m.tolist() for m in enumerate_adjacency_by_rowsums(n)] == (rows or [])

    @pytest.mark.parametrize("n", [(0,) * 1500, (0,) * 1498 + (1, 1)], ids=["zeros", "last-pair"])
    def test_long_sequences_do_not_recurse(self, n):
        (only,) = enumerate_adjacency_by_rowsums(n)
        assert only.row_sums() == n
        assert list(only.upper_items()) == ([(1499, 1500, 1)] if n[-1] else [])


def test_enumerated_matrices_equal_checked_construction():
    runs = [enumerate_adjacency_by_degree(d, deg) for d in range(1, 5) for deg in (0, 2, 4, 6)]
    runs += [
        enumerate_adjacency_by_degree(4, 4, row_caps=caps)
        for caps in ([1, 1, 1, 1], [2, 0, 1, 3], [4, 4, 4, 4])
    ]
    runs += [enumerate_adjacency_by_rowsums(n) for n in positive_sequences(6, 4)]
    runs += [enumerate_adjacency_by_rowsums(n) for n in [(0, 0), (2, 2, 0), (3, 3, 2, 2)]]
    assert sum(len(run) for run in runs) > 100
    for run in runs:
        for m in run:
            assert m == AdjacencyMatrix.from_rows(m.tolist())


def brute_force_by_degree(d, degree):
    """Upper triangles, in lexicographic order, of every d x d matrix of the
    given degree, each counted out of a multiset of ``degree // 2`` edges
    over the upper slots (a product over the slots would need
    ``(degree // 2 + 1) ** slots`` candidates)."""
    slots = [(i, j) for i in range(d) for j in range(i + 1, d)]
    uppers = set()
    for edges in itertools.combinations_with_replacement(range(len(slots)), degree // 2):
        uppers.add(tuple(edges.count(s) for s in range(len(slots))))
    return sorted(uppers)


def upper_row_sums(d, upper):
    sums = [0] * d
    slots = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for (i, j), v in zip(slots, upper):
        sums[i] += v
        sums[j] += v
    return tuple(sums)


def test_enumerators_match_brute_force():
    rng = random.Random(2024)
    for d in range(1, 6):
        for degree in range(0, 11, 2):
            half = degree // 2
            expected = brute_force_by_degree(d, degree)
            sums = {upper: upper_row_sums(d, upper) for upper in expected}
            got = [tuple(m.upper_values()) for m in enumerate_adjacency_by_degree(d, degree)]
            assert got == expected, (d, degree)

            for _ in range(3):
                caps = [rng.randint(0, half + 1) for _ in range(d)]
                want = [u for u in expected if all(s <= c for s, c in zip(sums[u], caps))]
                got = enumerate_adjacency_by_degree(d, degree, row_caps=caps)
                assert [tuple(m.upper_values()) for m in got] == want, (d, degree, caps)
            if degree:
                short = [rng.randint(0, (degree - 1) // d) for _ in range(d)]
                assert sum(short) < degree
                assert enumerate_adjacency_by_degree(d, degree, row_caps=short) == []

            by_sums = {}
            for upper in expected:
                by_sums.setdefault(sums[upper], []).append(upper)
            for n in itertools.product(range(half + 1), repeat=d):
                if sum(n) == degree:
                    got = [tuple(m.upper_values()) for m in enumerate_adjacency_by_rowsums(n)]
                    assert got == by_sums.get(n, []), n


@pytest.mark.parametrize(
    "fn", [is_admissible, enumerate_adjacency_by_rowsums, admissible_witness, ssyt_two_row]
)
@pytest.mark.parametrize(
    "n", [(2.9, "1", True), (2.0, 2), ("2", "2"), (True, True), (Fraction(2), 2), (2, 2.5)],
    ids=["mixed", "float", "strings", "bools", "fraction", "trailing-float"],
)
def test_sequences_take_only_ints(fn, n):
    # int() would truncate 2.9 and read '1' and True as 1.
    with pytest.raises(ValueError, match="entries must be integers"):
        fn(n)


class TestBudgets:
    def test_enumerators_yield_exactly_their_count(self, monkeypatch):
        # The matrices are counted before any is built: a budget equal to
        # what an enumerator yields admits it, one less refuses it.
        rng = random.Random(1717)
        cases = []
        for _ in range(10):
            d = rng.randint(2, 5)
            n = [rng.randint(0, 4) for _ in range(d)]
            n[0] += sum(n) % 2
            degree = 2 * rng.randint(1, 4)
            caps = [rng.randint(1, degree // 2) for _ in range(d)]
            cases += [(enumerate_adjacency_by_rowsums, (n,)),
                      (enumerate_adjacency_by_degree, (d, degree)),
                      (enumerate_adjacency_by_degree, (d, degree, caps))]
        counted = 0
        for fn, args in cases:
            monkeypatch.setattr(starwick.combinat, "_MAX_MATRICES", 10**6)
            count = len(fn(*args))
            if not count:
                continue
            counted += 1
            monkeypatch.setattr(starwick.combinat, "_MAX_MATRICES", count)
            assert len(fn(*args)) == count
            monkeypatch.setattr(starwick.combinat, "_MAX_MATRICES", count - 1)
            with pytest.raises(ValueError, match=f"^{count} matrices exceed the "
                                                 f"enumeration budget of {count - 1}$"):
                fn(*args)
        assert counted >= 25

    @pytest.mark.parametrize("n, partial", [((3,) * 8, 37_747), ((1, 2, 3, 2), 16)], ids=str)
    def test_row_state_budget_counts_partial_rows(self, monkeypatch, n, partial):
        # The pins count the partial rows grown on a cleared memo; once the
        # memo holds them, each state is charged what its growth took.
        starwick.combinat._COMPOSITIONS.clear()
        monkeypatch.setattr(starwick.combinat, "_MAX_PARTIAL_ROWS", partial)
        assert starwick.combinat._row_states(n)
        assert starwick.combinat._COMPOSITIONS
        monkeypatch.setattr(starwick.combinat, "_MAX_PARTIAL_ROWS", partial - 1)
        with pytest.raises(ValueError, match=f"^row-state table exceeds the budget of "
                                             f"{partial - 1} partial rows$"):
            starwick.combinat._row_states(n)


def test_row_states_are_the_same_warm_or_cold():
    """The row-state memo changes no table: each seeded sequence,
    admissible or not and with zeros, gives the same table built on a
    cleared memo and on what the other sequences left in it."""
    rng = random.Random(3030)
    cases = [(0,), (0, 0), (2, 0, 2), (1, 2, 3, 2)] + [
        tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 8))) for _ in range(150)]
    cold = []
    for n in cases:
        starwick.combinat._COMPOSITIONS.clear()
        cold.append(starwick.combinat._row_states(n))
    assert sum(map(bool, cold)) > 40
    for n, table in [*zip(cases, cold), *zip(reversed(cases), reversed(cold))]:
        assert starwick.combinat._row_states(n) == table, n
    assert starwick.combinat._COMPOSITIONS


def test_row_state_memo_is_keyed_by_state():
    """The memo holds one entry per state with a row to grow, keyed by the
    state itself, and a warm call adds nothing to it."""
    rng = random.Random(3131)
    cases = [(0, 2, 0, 2), (1, 2, 3, 2)] + [
        tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 7))) for _ in range(40)]
    memo = starwick.combinat._COMPOSITIONS
    memo.clear()
    states = set()
    for n in cases:
        for layer in starwick.combinat._row_states(n):
            states.update(state for state in layer if state[0])
    assert len(states) > 100
    assert set(memo) == states
    size = memo.size
    for n in cases:
        starwick.combinat._row_states(n)
    assert (set(memo), memo.size) == (states, size)


def test_row_states_hand_out_the_stored_moves():
    """Every layer's moves are a tuple, and a warm call's layers hold the
    memo's own moves tuples.  On a cleared memo each move's rest is the
    very key of the next layer, so equal rests of one call are one object;
    a warm call hands out the stored rests as they are."""
    rng = random.Random(3333)
    cases = [(0,), (0, 2, 0, 2), (2, 0, 2), (1, 2, 3, 2)] + [
        tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 7))) for _ in range(60)]
    memo = starwick.combinat._COMPOSITIONS
    stored = no_need = 0
    for n in cases:
        memo.clear()
        for warm in (False, True):
            layers = starwick.combinat._row_states(n)
            for layer, below in zip(layers, [*layers[1:], {(): None}]):
                keys = {state: state for state in below}
                for state, moves in layer.items():
                    assert type(moves) is tuple, (n, state)
                    if not warm:
                        assert all(keys[rest] is rest for _, rest in moves), (n, state)
                    elif state[0]:
                        assert moves is memo[state][0], (n, state)
                        stored += 1
                    no_need += not state[0]
    assert stored > 200 and no_need > 20


def test_memos_stay_within_their_caps(monkeypatch):
    """Each memo counts the bytes of its entries and is cleared whole before
    it passes its cap, even when one table needs more, and a growth the
    budget refuses stores nothing."""
    from starwick.wick import _ROW_TEXTS, _MAX_ROW_TEXT_BYTES, _expectation_text
    memo = starwick.combinat._COMPOSITIONS
    assert memo.cap == starwick.combinat._MAX_COMPOSITION_BYTES
    for n in [(3,) * 10, (2,) * 12]:
        with pytest.raises(ValueError, match="exceed the matrix budget"):
            _expectation_text(n, "K")  # refused once its table is built
        assert 0 < memo.size <= memo.cap
        # An entry holds its state, itself, its moves, their pairs, and each
        # pair's row and rest.
        assert memo.size == sum(sum(map(sys.getsizeof, (state, entry, entry[0], *entry[0],
                                                         *itertools.chain.from_iterable(entry[0]))))
                                for state, entry in memo.items())
    # Each row of a long run of zeros holds its zeros, so the texts of one
    # call pass their cap: the memo is cleared on the way and keeps a tail.
    assert _ROW_TEXTS.cap == _MAX_ROW_TEXT_BYTES
    for family in ("K", "P"):
        assert _expectation_text((0,) * 1000, family) == "1"
        assert 0 < _ROW_TEXTS.size <= _ROW_TEXTS.cap
        assert len(_ROW_TEXTS) < 1000
    # Texts written after a clear are still those of the packed sum.
    family = "F" * 1000
    for n in [(2, 2, 2, 2, 2), (1, 2, 3, 2, 1, 1)]:
        spec = WickMonomialSpec(n, PropagatorMatrix.zero(len(n)),
                                PropagatorMatrix.family(family, len(n)))
        assert _expectation_text(n, family) == str(expectation_formula(spec))
    memo.clear()
    monkeypatch.setattr(starwick.combinat, "_MAX_PARTIAL_ROWS", 1)
    with pytest.raises(ValueError, match="budget of 1 partial rows"):
        starwick.combinat._row_states((3,) * 8)
    assert (len(memo), memo.size) == (0, 0)


@pytest.mark.parametrize("objects", [[tuple(range(200))], [(1,) * 60, (2,) * 60, (3,) * 60]],
                         ids=["one-object", "several-objects"])
def test_memo_refuses_an_entry_over_its_cap(objects):
    """An entry larger than the whole cap is refused: nothing is counted
    and the entries already held stay."""
    memo = starwick.combinat._Memo(1000)
    assert memo.reserve(sys.getsizeof((1, 2)))
    memo[1] = (1, 2)
    size = memo.size
    assert (entry := sum(map(sys.getsizeof, objects))) > memo.cap
    assert memo.reserve(entry) is False
    assert (dict(memo), memo.size) == ({1: (1, 2)}, size)


def test_row_states_list_moves_in_canonical_order():
    """Each state's moves come in canonical order, zero last: ``v > 0``
    reads as ``v - 1`` and ``0`` after every value, the order of the
    ``expect`` monomials, which ``wick._expectation_text`` writes without
    sorting.  The sequences are admissible or not; an inadmissible one has
    no states."""
    rng = random.Random(2929)
    cases = [(0,)] + [tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 8)))
                      for _ in range(200)]
    unsorted = 0
    for n in cases:
        h = sum(n) // 2
        for layer in starwick.combinat._row_states(n):
            for state, moves in layer.items():
                rows = [row for row, _ in moves]
                assert rows == sorted(rows, key=lambda row: [v - 1 if v else h + 1 for v in row]), \
                    (n, state)
                unsorted += rows != sorted(rows)
    assert unsorted > 100  # states whose canonical order is not the ascending one


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible((1, 1, 1)) is False
        assert is_admissible((3, 1)) is False
        assert is_admissible((2, 1, 1)) is True

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_admissible((2, 0))

    def test_matches_enumeration_exhaustively(self):
        for n in positive_sequences(10, 5):
            closed = is_admissible(n)
            assert closed == bool(enumerate_adjacency_by_rowsums(n)), n


class TestWitness:
    def test_examples(self):
        assert admissible_witness((2, 2)).rows == ((0, 2), (2, 0))
        w = admissible_witness((2, 1, 1))
        assert w.rows == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
        for p in range(1, 5):
            assert admissible_witness((p, p)).rows[0][1] == p

    def test_tight_sequence(self):
        # the reduction must not strand mass on one neighbor
        w = admissible_witness((3, 3, 2))
        assert w.row_sums() == (3, 3, 2)

    def test_witness_in_enumeration_exhaustively(self):
        for n in positive_sequences(10, 5):
            if not is_admissible(n):
                with pytest.raises(ValueError):
                    admissible_witness(n)
                continue
            w = admissible_witness(n)
            assert w in enumerate_adjacency_by_rowsums(n), n

    def test_unsorted_input_keeps_positions(self):
        w = admissible_witness((1, 3, 2, 2))
        assert w.row_sums() == (1, 3, 2, 2)


class TestSSYT:
    def test_examples(self):
        t = ssyt_two_row((2, 1, 1))
        assert (t.row1, t.row2) == ((1, 1), (2, 3))
        t = ssyt_two_row((1, 1))
        assert (t.row1, t.row2) == ((1,), (2,))
        t = ssyt_two_row((2, 2, 1, 1))
        assert (t.row1, t.row2) == ((1, 1, 2), (2, 3, 4))

    def test_rejects_unsorted_or_inadmissible(self):
        with pytest.raises(ValueError):
            ssyt_two_row((1, 2, 1))
        with pytest.raises(ValueError):
            ssyt_two_row((3, 1))

    def test_invariants_hold_up_to_total_twelve(self):
        for n in positive_sequences(12, 6):
            if tuple(sorted(n, reverse=True)) != n:
                continue
            if not is_admissible(n):
                continue
            tableau = ssyt_two_row(n)  # constructor validates shape
            # column reading encodes a matrix realizing the row sums
            upper = {}
            for a, b in tableau.columns():
                key = (a - 1, b - 1)
                upper[key] = upper.get(key, 0) + 1
            matrix = AdjacencyMatrix.from_upper(len(n), upper)
            assert matrix.row_sums() == n
            assert matrix in enumerate_adjacency_by_rowsums(n)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            TwoRowSSYT((1, 2), (2, 2))  # column not strict
        with pytest.raises(ValueError):
            TwoRowSSYT((2, 1), (3, 3))  # row not weakly increasing


class TestMatchingInvolution:
    def test_examples(self):
        m = AdjacencyMatrix.from_upper(4, {(0, 1): 1, (2, 3): 1})
        assert matching_to_involution(m) == (2, 1, 4, 3)
        m = AdjacencyMatrix.from_upper(4, {(0, 3): 1, (1, 2): 1})
        assert matching_to_involution(m) == (4, 3, 2, 1)

    def test_rejects_non_matchings(self):
        with pytest.raises(ValueError):
            matching_to_involution(AdjacencyMatrix.from_upper(2, {(0, 1): 2}))

    def test_counts_fixed_point_free_involutions(self):
        perms = {
            matching_to_involution(m)
            for m in enumerate_adjacency_by_rowsums((1,) * 6)
        }
        assert len(perms) == 15
        for perm in perms:
            assert all(perm[perm[i] - 1] == i + 1 for i in range(6))
            assert all(perm[i] != i + 1 for i in range(6))
