"""Adjacency-matrix combinatorics: enumeration, admissibility, tableaux.

An adjacency matrix here is symmetric with non-negative integer entries
and a zero main diagonal; entry ``m_ij`` counts edges between vertices
``i`` and ``j``.  Row sums are the degree sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

IntSequence = tuple[int, ...]


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
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "AdjacencyMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

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
    slots = _upper_slots(d)
    caps = list(row_caps) if row_caps is not None else None
    if caps is not None and len(caps) != d:
        raise ValueError("row_caps length must match the matrix size")
    half = degree // 2
    used = [0] * d
    values = [0] * len(slots)
    out: list[AdjacencyMatrix] = []

    def free(i: int) -> int:
        return half if caps is None else caps[i] - used[i]

    def walk(idx: int, remaining: int) -> None:
        if idx == len(slots):
            if remaining == 0:
                out.append(_from_slots(d, slots, values))
            return
        if caps is not None:
            headroom = sum(max(free(i), 0) for i in range(d)) // 2
            if remaining > headroom:
                return
        i, j = slots[idx]
        top = min(remaining, free(i), free(j)) if caps is not None else remaining
        for v in range(top + 1):
            values[idx] = v
            used[i] += v
            used[j] += v
            walk(idx + 1, remaining - v)
            used[i] -= v
            used[j] -= v
        values[idx] = 0

    walk(0, half)
    return out


def enumerate_adjacency_by_rowsums(n: Sequence[int]) -> list[AdjacencyMatrix]:
    """All adjacency matrices with the prescribed row sums, ascending
    row-major lexicographic order; empty when none exist."""
    n = tuple(int(v) for v in n)
    d = len(n)
    if d < 1 or any(v < 0 for v in n):
        return []
    slots = _upper_slots(d)
    rem = list(n)
    values = [0] * len(slots)
    out: list[AdjacencyMatrix] = []

    def feasible() -> bool:
        total = sum(rem)
        return total % 2 == 0 and (not rem or 2 * max(rem) <= total)

    def walk(idx: int) -> None:
        if not feasible():
            return
        if idx == len(slots):
            if all(v == 0 for v in rem):
                out.append(_from_slots(d, slots, values))
            return
        i, j = slots[idx]
        for v in range(min(rem[i], rem[j]) + 1):
            values[idx] = v
            rem[i] -= v
            rem[j] -= v
            # row i is final once its last slot (i, d-1) has been assigned
            if j < d - 1 or rem[i] == 0:
                walk(idx + 1)
            rem[i] += v
            rem[j] += v
        values[idx] = 0

    walk(0)
    return out


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
