"""Adjacency-matrix combinatorics: enumeration, admissibility, tableaux.

An adjacency matrix here is symmetric with non-negative integer entries
and a zero main diagonal; entry ``m_ij`` counts edges between vertices
``i`` and ``j``.  Row sums are the degree sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Mapping, Sequence

IntSequence = tuple[int, ...]


def _is_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: the only integers JSON input may give."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class AdjacencyMatrix:
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
    def _raw(cls, rows: tuple[tuple[int, ...], ...]) -> "AdjacencyMatrix":
        """A matrix valid by construction, built without the checks."""
        out = object.__new__(cls)
        out.__dict__["rows"] = rows
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


def _upper_slots(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _from_slots(d: int, slots: list[tuple[int, int]], values: list[int]) -> AdjacencyMatrix:
    """The matrix with ``values[s]`` at upper slot ``slots[s]`` and at its
    mirror.  The walks only write non-negative values, so the result is a
    valid adjacency matrix and is built without the checks."""
    grid = [[0] * d for _ in range(d)]
    for (i, j), v in zip(slots, values):
        grid[i][j] = grid[j][i] = v
    return AdjacencyMatrix._raw(tuple(map(tuple, grid)))


def enumerate_adjacency_by_degree(
    d: int, degree: int, row_caps: Sequence[int] | None = None
) -> list[AdjacencyMatrix]:
    """All d x d adjacency matrices of the given degree, ascending row-major
    lexicographic order on the upper triangle.

    ``row_caps`` optionally bounds each row sum; useful to skip matrices
    whose operators annihilate a factor of known polynomial degree.
    """
    if d < 1:
        raise ValueError("matrix size must be at least 1")
    if degree < 0 or degree % 2:
        raise ValueError(f"degree must be even and non-negative, got {degree}")
    # No row sum exceeds degree // 2; a larger cap would only widen the
    # value range the walk tries at each slot.
    half = degree // 2
    caps = [half] * d if row_caps is None else [min(c, half) for c in row_caps]
    if len(caps) != d:
        raise ValueError("row_caps length must match the matrix size")
    if any(c < 0 for c in caps):
        raise ValueError("row_caps must be non-negative")
    slack = sum(caps) - degree
    # Slot (i, d) of the walk over d + 1 vertices holds caps[i] minus row
    # i's sum; it is the last slot of row i, so dropping it keeps the order.
    kept = [j < d for _, j in _upper_slots(d + 1)]
    slots = _upper_slots(d)
    return [
        _from_slots(d, slots, compress(values, kept))
        for values in _rowsum_walk((*caps, slack))
    ]


def _rowsum_walk(n: IntSequence) -> Iterator[list[int]]:
    """Upper-triangle values, row-major, of every adjacency matrix with row
    sums ``n``, in ascending lexicographic order; none if a sum is negative.

    One list is yielded and rewritten in place, so a caller that keeps a
    matrix copies it.  A branch is cut as soon as one remaining row sum
    exceeds the rest (the total stays even once it starts even), and the
    last slot ``(i, d-1)`` of row ``i`` takes exactly what row ``i`` still
    needs.  ``enumerate_adjacency_by_degree`` runs it over an extra slack
    vertex whose slots take what each row leaves below its cap.
    """
    d = len(n)
    slots = _upper_slots(d)
    rem = list(n)
    left = sum(rem)
    values = [0] * len(slots)
    tops = [0] * len(slots)
    if left % 2 or 2 * max(rem) > left or min(rem) < 0:
        return
    if not slots:
        if not left:
            yield values
        return
    # A slot is entered from above at its lowest value; otherwise its value
    # goes up by one or, past its top, is undone and the walk backs up.
    last = len(slots) - 1
    idx, entering = 0, True
    while idx >= 0:
        i, j = slots[idx]
        if entering:
            v = rem[i] if j == d - 1 else 0
            top = min(rem[i], rem[j])
            if v > top:
                idx, entering = idx - 1, False
                continue
            tops[idx] = top
            values[idx] = v
            rem[i] -= v
            rem[j] -= v
            left -= 2 * v
        elif values[idx] < tops[idx]:
            values[idx] += 1
            rem[i] -= 1
            rem[j] -= 1
            left -= 2
        else:
            v = values[idx]
            rem[i] += v
            rem[j] += v
            left += 2 * v
            idx, entering = idx - 1, False
            continue
        entering = False
        if 2 * max(rem) <= left:
            if idx < last:
                idx, entering = idx + 1, True
            elif not left:
                yield values


def enumerate_adjacency_by_rowsums(n: Sequence[int]) -> list[AdjacencyMatrix]:
    """All adjacency matrices with the prescribed row sums, ascending
    row-major lexicographic order; empty when none exist."""
    n = tuple(int(v) for v in n)
    d = len(n)
    if d < 1:
        return []
    slots = _upper_slots(d)
    return [_from_slots(d, slots, values) for values in _rowsum_walk(n)]


def is_admissible(n: Sequence[int]) -> bool:
    """Closed-form test: even total and no entry above half the total."""
    n = tuple(int(v) for v in n)
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
    # residual degree condition allows, then recurse on what is left
    mass = min(values[-1], total // 2 - values[1])
    _add_edge(entries, work[0][1], work[-1][1], mass)
    work[0] = (values[0] - mass, work[0][1])
    work[-1] = (values[-1] - mass, work[-1][1])
    _witness_fill(work, entries)


def admissible_witness(n: Sequence[int]) -> AdjacencyMatrix:
    """A concrete adjacency matrix realizing the given admissible row sums."""
    n = tuple(int(v) for v in n)
    if not is_admissible(n):
        raise ValueError(f"sequence {n} is not admissible")
    entries: dict[tuple[int, int], int] = {}
    _witness_fill([(v, i) for i, v in enumerate(n)], entries)
    return AdjacencyMatrix.from_upper(len(n), entries)


@dataclass(frozen=True)
class TwoRowSSYT:
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
    n = tuple(int(v) for v in n)
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
