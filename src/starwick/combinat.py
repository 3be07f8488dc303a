"""Adjacency-matrix combinatorics: enumeration, admissibility, tableaux.

An adjacency matrix here is symmetric with non-negative integer entries
and a zero main diagonal; entry ``m_ij`` counts edges between vertices
``i`` and ``j``.  Row sums are the degree sequence.

The matrices with given row sums are the paths through row states
(:func:`_row_states`), each state's moves in canonical order, zero last:
the order of the ``expect`` monomials.  A state's moves, each row with
the state it leaves, depend on the state alone, so they are grown once
and then handed out as stored by a memo keyed by the state and kept
across calls, their growth still charged to the budget.  The states one
call grows leave equal rests as one object, the next layer's key.  One
fold, :func:`_fold`, walks the states from the last row back with a step
per state, so a value shared by the completions of many prefixes is
computed once.  It has four steps:
:func:`_count_paths` counts the matrices, :func:`_matrices` builds them
as flat cell tuples, sorted once into ascending row-major order, for
both enumerators and ``enum-adj``,
:func:`starwick.wick.expectation_formula` sums the Isserlis weights of
the Wick expectation, and :func:`starwick.wick._expectation_text` writes
the ``expect`` text, one term per matrix, with no sort.  Two budgets
bound the work: ``_MAX_PARTIAL_ROWS`` on the row-state table and
``_MAX_MATRICES`` on the matrices built, and on the Isserlis terms when
each is one matrix.  The builders meet the second through one
count-before-build step, :func:`_count_over`.  The memo, like the row
texts of :func:`starwick.wick._expectation_text`, is a :class:`_Memo`,
cleared whole at a fixed cap in bytes.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations
from operator import itemgetter, sub
from typing import Iterator, Mapping, Sequence

from .algebra import _Value

IntSequence = tuple[int, ...]


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: the only integers JSON input may give."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_sequence(n: Sequence[int]) -> IntSequence:
    """``n`` as a tuple; a float, string or ``bool`` entry is refused, not truncated."""
    if not all(map(_is_int, n := tuple(n))):
        raise ValueError(f"entries must be integers, got {n}")
    return n


class AdjacencyMatrix(_Value):
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square")
        for i, row in enumerate(self.rows):
            if row[i] != 0:
                raise ValueError("main diagonal must be zero")
            for j, v in enumerate(row):
                if v < 0:
                    raise ValueError("entries must be non-negative")
                if self.rows[j][i] != v:
                    raise ValueError("matrix must be symmetric")

    @classmethod
    def _from_cells(cls, cells: list[IntSequence], d: int) -> list["AdjacencyMatrix"]:
        """Matrices of ``d`` rows from flat row-major cell tuples, valid by
        construction and built without the checks."""
        rows = _getter([slice(i * d, i * d + d) for i in range(d)])
        out = [object.__new__(cls) for _ in cells]
        for matrix, matrix_rows in zip(out, map(rows, cells)):
            matrix.__dict__["rows"] = matrix_rows
        return out

    @classmethod
    def zero(cls, size: int) -> "AdjacencyMatrix":
        return cls(tuple((0,) * size for _ in range(size)))

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "AdjacencyMatrix":
        """Build from a list of rows, each a list of ints (bools are refused)."""
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in rows
        ):
            raise ValueError("matrix must be a list of rows of integers")
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def from_upper(cls, size: int, upper: Mapping[tuple[int, int], int]) -> "AdjacencyMatrix":
        """Build from 0-based upper-triangle entries ``(i, j) -> m_ij``."""
        grid = [[0] * size for _ in range(size)]
        for (i, j), v in upper.items():
            if not 0 <= i < j < size:
                raise ValueError(f"bad upper-triangle slot ({i}, {j})")
            grid[i][j] = v
            grid[j][i] = v
        return cls(tuple(tuple(row) for row in grid))

    @property
    def size(self) -> int:
        return len(self.rows)

    def degree(self) -> int:
        return sum(sum(row) for row in self.rows)

    def row_sums(self) -> IntSequence:
        return tuple(sum(row) for row in self.rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def upper_items(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero upper entries as 1-based ``(i, j, m_ij)`` with i < j."""
        for i in range(self.size):
            for j in range(i + 1, self.size):
                v = self.rows[i][j]
                if v:
                    yield (i + 1, j + 1, v)

    def upper_values(self) -> list[int]:
        """All upper-triangle entries in row-major order, zeros included."""
        return [self.rows[i][j] for i in range(self.size) for j in range(i + 1, self.size)]

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def multinomial(k: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient ``k! / (parts[0]! * ... )``."""
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative")
    if sum(parts) != k:
        raise ValueError(f"parts sum to {sum(parts)}, expected {k}")
    out = math.factorial(k)
    for p in parts:
        out //= math.factorial(p)
    return out


# The most partial rows :func:`_row_states` grows, over all its states and
# columns, before it refuses with ``ValueError``.  A state whose moves come
# from the state memo is charged the partial rows their growth took,
# so a table is refused at the same state, with the same message, whether
# the memo is warm or cold.  The table is built in full before it is read,
# so a large one holds its memory to the end: ``(3,) * 10`` grows 576,065
# partial rows, ``(6,) * 12`` (``expect`` on twelve 6s) went past 5.5 GB
# unfinished, and the first state of ``enum-adj --dim 12 --deg 30`` alone
# grows millions.  The benchmark pools reach 2,224, and the tests 576,065
# with the memory bound of the memos, on ``(3,) * 10``.
_MAX_PARTIAL_ROWS = 10**6

# The most matrices :func:`_matrices` builds, and the most Isserlis terms
# :func:`starwick.wick.expectation_formula` and
# :func:`starwick.wick._expectation_text` build when each matrix is one
# term.  All count first, with the same fold, and refuse above this with
# ``ValueError``: the 190,050 matrices of ``(3,) * 8`` take 5.5 s and
# 509 MB as ``enum-adj`` output, and ``(3,) * 10`` has 103,050,570.  The
# benchmark pools reach 822 and the tests 2,002.
_MAX_MATRICES = 200_000


class _Memo(dict):
    """A memo of pure results, holding only immutable values, whose memory
    stays bounded: :meth:`reserve` counts the bytes of each entry's objects
    and clears the memo whole before the count would pass ``cap``."""

    __slots__ = ("cap", "size")

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap, self.size = cap, 0

    def clear(self) -> None:
        super().clear()
        self.size = 0

    def reserve(self, size: int) -> bool:
        """Count an entry of ``size`` bytes, clearing the memo first if it
        would pass the cap; False, and nothing counted, if it alone would."""
        if size > self.cap:
            return False
        if self.size + size > self.cap:
            self.clear()
        self.size += size
        return True


# Each state's moves across calls, ``(need, *caps) -> (moves, partial rows
# grown)``: they depend on the state alone.  An entry counts the bytes of
# its state, itself, its moves tuple and, per move, a pair, a row and a
# rest, a rest counted in every entry that holds it.  The 318 benchmark
# pool sequences need 3,411,504 in 1,941 entries, and ``(3,) * 10`` alone
# 40,846,528, clearing the memo on the way.
_MAX_COMPOSITION_BYTES = 1 << 22
_COMPOSITIONS = _Memo(_MAX_COMPOSITION_BYTES)


def _over_budget() -> ValueError:
    return ValueError(f"row-state table exceeds the budget of {_MAX_PARTIAL_ROWS} partial rows")


def _row_states(n: IntSequence) -> list[dict[IntSequence, tuple[tuple[IntSequence, IntSequence], ...]]]:
    """The adjacency matrices with row sums ``n`` as paths through row states.

    ``layers[i]`` maps each state reachable at row ``i`` (the row sums rows
    ``i..`` still need) to its moves: the values of row ``i`` right of the
    diagonal, each with the state it leaves, in canonical order, zero last:
    lexicographic with each column's values taken as 1, 2, ... and then 0,
    the order of the ``expect`` monomials
    (:func:`starwick.wick._expectation_text`).  Only admissible states are
    kept (none negative, even total, no entry above half of it).  For
    loopless multigraphs that is sufficient, so every kept state completes
    and every path from ``n`` to the empty state is one matrix.  No layers
    when ``n`` is not admissible.  A state's moves depend on the state
    alone, so they are grown once and kept across calls in
    ``_COMPOSITIONS``, whose tuple a later call hands to its layer as it is.
    A state grown on the call takes each rest it leaves from the next
    layer's states met so far (``after``), so equal rests of one call are
    one object, the key the next layer grows and stores, and the fold's
    lookups find it by identity.  Growing more than ``_MAX_PARTIAL_ROWS`` partial rows raises
    ``ValueError``: a memoized state is charged the partial rows its growth
    took, and a growth refused part way stores nothing.
    """
    total = sum(n)
    if min(n) < 0 or total % 2 or 2 * max(n) > total:
        return []
    layers, partial = [], 0
    states = [n]
    while states[0]:
        layer, after = {}, {}
        for state in states:
            need, caps = state[0], state[1:]
            if not need:
                layer[state] = (((0,) * len(caps), after.setdefault(caps, caps)),)
                continue
            if entry := _COMPOSITIONS.get(state):
                layer[state] = moves = entry[0]
                if (partial := partial + entry[1]) > _MAX_PARTIAL_ROWS:
                    raise _over_budget()
                for _, rest in moves:
                    after.setdefault(rest, rest)
            else:
                # What is left sums to ``2 * half`` and none of it may exceed
                # ``half``, which bounds each value of the row from both sides.
                half = (sum(caps) - need) // 2
                lows = [c - half if c > half else 0 for c in caps]
                highs = [c if c < need else need for c in caps]
                low, high = sum(lows), sum(highs)
                # A partial row is kept only if the later columns can take
                # what it leaves, so every one completes.
                rows, start = [((), need)], partial
                for a, b in zip(lows, highs):
                    low -= a
                    high -= b
                    grown, room = [], _MAX_PARTIAL_ROWS - partial
                    for row, r in rows:
                        v, top = r - high, r - low
                        if v < a:
                            v = a
                        if top > b:
                            top = b
                        x = v or 1  # zero goes last: the canonical order of the moves
                        while x <= top:
                            grown.append((row + (x,), r - x))
                            x += 1
                        if not v:
                            grown.append((row + (0,), r))
                        if len(grown) > room:
                            raise _over_budget()
                    rows = grown
                    partial += len(grown)
                # Equal rests of the states this call grows are one object, the next layer's key.
                layer[state] = moves = tuple([
                    (row, after.setdefault(rest := tuple(map(sub, caps, row)), rest))
                    for row, _ in rows])
                entry = (moves, partial - start)
                # Every pair, row and rest of a state has the size of the first.
                size = len(moves) * sum(map(sys.getsizeof, (moves[0], *moves[0])))
                if _COMPOSITIONS.reserve(size + sum(map(sys.getsizeof, (state, entry, moves)))):
                    _COMPOSITIONS[state] = entry
        layers.append(layer)
        states = list(after)
    return layers


def _fold(layers: list[dict], leaf, step):
    """The start state's value, folded from the last row back: the end state
    is worth ``leaf`` and a state of row ``i`` is worth ``step(i, state,
    moves, below)``, with ``below`` the values of row ``i + 1``.  So a value
    shared by the completions of many prefixes is computed once."""
    below = {(): leaf}
    for i in reversed(range(len(layers))):
        below = {state: step(i, state, moves, below) for state, moves in layers[i].items()}
    return below.popitem()[1]


def _count_paths(i: int, state: IntSequence, moves: tuple, below: dict[IntSequence, int]) -> int:
    """:func:`_fold` step: the number of paths from ``state`` to the end."""
    return sum(below[rest] for _, rest in moves)


def _count_over(layers: list[dict], budget: int) -> int:
    """The number of paths through ``layers`` when it exceeds ``budget``,
    else 0: the count-before-build step of :func:`_matrices`,
    :func:`starwick.wick.expectation_formula` and
    :func:`starwick.wick._expectation_text`.  The product of each row's
    most moves bounds the count for about a tenth of the count's cost, so
    the paths are counted only when that bound exceeds the budget."""
    if math.prod(max(map(len, layer.values())) for layer in layers) <= budget:
        return 0
    count = _fold(layers, 1, _count_paths)
    return count if count > budget else 0


def _getter(items: list):
    """``itemgetter(*items)``, returning a tuple even of one item."""
    return itemgetter(*items) if len(items) > 1 else lambda seq: (seq[items[0]],)


def _matrices(n: IntSequence, d: int) -> list[IntSequence]:
    """The matrices on the first ``d`` vertices of the paths through the row
    states of ``n``, each the flat row-major tuple of its ``d * d`` cells,
    in ascending row-major lexicographic order of the upper triangle; the
    values of later vertices are dropped.

    More than ``_MAX_MATRICES`` paths (:func:`_count_over`) raise
    ``ValueError``.  Then each state is folded to the upper slots of all its
    completions, flat tuples, so a suffix shared by many prefixes is built
    once.  The moves come in canonical order, zero last, so the paths are
    sorted once; the values dropped follow from those kept, so none tie.
    """
    layers = _row_states(n)
    if not layers:
        return []
    if count := _count_over(layers, _MAX_MATRICES):
        raise ValueError(f"{count} matrices exceed the enumeration budget of {_MAX_MATRICES}")

    def suffixes(i, state, moves, below):
        out = []
        for row, rest in moves:
            head = row[: d - 1 - i]
            out += [head + tail for tail in below[rest]]
        return out

    # A path is its upper slots, row-major, then the leaf's zero: cell (i, j)
    # reads the slot of its pair, and the diagonal reads the zero.
    slot = {pair: k for k, pair in enumerate(combinations(range(d), 2))}
    index = [slot.get((min(i, j), max(i, j)), len(slot)) for i in range(d) for j in range(d)]
    return list(map(_getter(index), sorted(_fold(layers, [(0,)], suffixes))))


def _degree_sums(d: int, degree: int, row_caps: Sequence[int] | None = None) -> IntSequence:
    """The row sums whose matrices on the first ``d`` vertices are those of
    :func:`enumerate_adjacency_by_degree`, after its checks: ``row_caps``
    and a slack vertex that takes what each row leaves below its cap."""
    if not _is_int(d) or d < 1:
        raise ValueError(f"matrix size must be an integer of at least 1, got {d!r}")
    if not _is_int(degree) or degree < 0 or degree % 2:
        raise ValueError(f"degree must be an even non-negative integer, got {degree!r}")
    # No row sum exceeds degree // 2; a larger cap would only widen the
    # values each row tries.
    half = degree // 2
    caps = [half] * d if row_caps is None else [min(c, half) for c in _int_sequence(row_caps)]
    if len(caps) != d:
        raise ValueError("row_caps length must match the matrix size")
    if any(c < 0 for c in caps):
        raise ValueError("row_caps must be non-negative")
    return (*caps, sum(caps) - degree)


def enumerate_adjacency_by_degree(
    d: int, degree: int, row_caps: Sequence[int] | None = None
) -> list[AdjacencyMatrix]:
    """All d x d adjacency matrices of the given degree, ascending row-major
    lexicographic order on the upper triangle.

    ``row_caps`` optionally bounds each row sum; useful to skip matrices
    whose operators annihilate a factor of known polynomial degree.
    """
    return AdjacencyMatrix._from_cells(_matrices(_degree_sums(d, degree, row_caps), d), d)


def enumerate_adjacency_by_rowsums(n: Sequence[int]) -> list[AdjacencyMatrix]:
    """All adjacency matrices with the prescribed row sums, ascending
    row-major lexicographic order; empty when none exist."""
    n = _int_sequence(n)
    return AdjacencyMatrix._from_cells(_matrices(n, len(n)), len(n)) if n else []


def is_admissible(n: Sequence[int]) -> bool:
    """Closed-form test: even total and no entry above half the total."""
    n = _int_sequence(n)
    if not n:
        raise ValueError("sequence must be non-empty")
    if any(v <= 0 for v in n):
        raise ValueError(f"entries must be positive, got {n}")
    total = sum(n)
    return total % 2 == 0 and 2 * max(n) <= total


def _add_edge(entries: dict[tuple[int, int], int], a: int, b: int, mass: int) -> None:
    key = (a, b) if a < b else (b, a)
    entries[key] = entries.get(key, 0) + mass


def _witness_fill(work: list[tuple[int, int]], entries: dict[tuple[int, int], int]) -> None:
    while True:
        work = [(v, i) for v, i in work if v > 0]
        if not work:
            return
        work.sort(key=lambda t: (-t[0], t[1]))
        values = [v for v, _ in work]
        d = len(work)
        total = sum(values)
        if d == 1:
            raise AssertionError("unreachable: single positive entry cannot be realized")
        if d == 2:
            (v1, i1), (v2, i2) = work
            assert v1 == v2
            _add_edge(entries, i1, i2, v1)
            return
        if values[0] == values[-1]:
            p = values[0]
            if d % 2 == 0:
                for a in range(d // 2):
                    _add_edge(entries, work[a][1], work[d - 1 - a][1], p)
            else:
                q = p // 2
                for a in range(d):
                    _add_edge(entries, work[a][1], work[(a + 1) % d][1], q)
            return
        # transfer as much of the smallest entry onto the largest as the
        # residual degree condition allows, then go on with what is left
        mass = min(values[-1], total // 2 - values[1])
        _add_edge(entries, work[0][1], work[-1][1], mass)
        work[0] = (values[0] - mass, work[0][1])
        work[-1] = (values[-1] - mass, work[-1][1])


def admissible_witness(n: Sequence[int]) -> AdjacencyMatrix:
    """A concrete adjacency matrix realizing the given admissible row sums."""
    n = _int_sequence(n)
    if not is_admissible(n):
        raise ValueError(f"sequence {n} is not admissible")
    entries: dict[tuple[int, int], int] = {}
    _witness_fill([(v, i) for i, v in enumerate(n)], entries)
    return AdjacencyMatrix.from_upper(len(n), entries)


class TwoRowSSYT(_Value):
    """Two-row semi-standard tableau: rows weakly increase, columns strictly."""

    row1: tuple[int, ...]
    row2: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.row1) != len(self.row2):
            raise ValueError("rows must have equal length")
        for row in (self.row1, self.row2):
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("rows must be weakly increasing")
        if any(a >= b for a, b in zip(self.row1, self.row2)):
            raise ValueError("columns must be strictly increasing")

    def columns(self) -> list[tuple[int, int]]:
        return list(zip(self.row1, self.row2))

    def to_json(self) -> dict:
        return {"row1": list(self.row1), "row2": list(self.row2)}


def ssyt_two_row(n: Sequence[int]) -> TwoRowSSYT:
    """Two-row tableau with content ``1^n1 2^n2 ...`` filled row-major."""
    n = _int_sequence(n)
    if any(a < b for a, b in zip(n, n[1:])):
        raise ValueError(f"sequence must be weakly decreasing, got {n}")
    if not is_admissible(n):
        raise ValueError(f"sequence {n} is not admissible")
    content: list[int] = []
    for value, count in enumerate(n, start=1):
        content.extend([value] * count)
    half = len(content) // 2
    return TwoRowSSYT(tuple(content[:half]), tuple(content[half:]))


def matching_to_involution(matrix: AdjacencyMatrix) -> tuple[int, ...]:
    """Fixed-point-free involution (1-based) encoded by a perfect matching."""
    if any(s != 1 for s in matrix.row_sums()):
        raise ValueError("every row sum must be 1 to encode a perfect matching")
    perm = [0] * matrix.size
    for i, row in enumerate(matrix.rows):
        perm[i] = row.index(1) + 1
    return tuple(perm)
