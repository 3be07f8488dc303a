"""Bipartite product graphs, their operator action and Feynman images.

A graph here is determined by an adjacency matrix on ``m`` boundary
vertices: entry ``m_ij`` counts internal vertices that send one edge to
boundary vertex ``i`` and one to ``j``.  Each internal vertex evaluates
to one application of the pair operator between factors ``i`` and ``j``,
so the whole graph acts as a poly-differential operator; multiplying
graphs adds their matrices.  Forgetting the internal vertices and
keeping one edge per internal vertex yields a loop-free multigraph on
the boundary, and that assignment is a bijection.

:func:`star_via_graphs` sums the graph operators layer by hbar layer.  It
builds the block tensor of the factors once per call, and it reaches each
matrix from its prefix, the matrix without its last internal vertex, so a
shared prefix is applied once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import CoeffElement, Poly, _TermSum
from .combinat import AdjacencyMatrix, enumerate_adjacency_by_degree, multinomial, _is_int
from .star import PropagatorMatrix, apply_bivector, _check_dims, _check_factors, _check_ordinary


@dataclass(frozen=True)
class BernoulliGraph:
    """Product of embedded one-internal-vertex graphs, encoded by a matrix."""

    boundary: int
    matrix: AdjacencyMatrix

    def __post_init__(self) -> None:
        if self.boundary < 1:
            raise ValueError("boundary vertex count must be at least 1")
        if self.matrix.size != self.boundary:
            raise ValueError(
                f"matrix size {self.matrix.size} does not match boundary {self.boundary}"
            )

    def internal_count(self) -> int:
        return self.matrix.degree() // 2

    def internal_targets(self) -> list[tuple[int, int]]:
        """Target pair (i, j) of every internal vertex, canonically ordered."""
        out = []
        for i, j, mult in self.matrix.upper_items():
            out.extend([(i, j)] * mult)
        return out

    def to_json(self) -> dict:
        return {"m": self.boundary, "matrix": self.matrix.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "BernoulliGraph":
        if not _is_int(data["m"]):
            raise ValueError("boundary vertex count must be an integer")
        return cls(data["m"], AdjacencyMatrix.from_rows(data["matrix"]))


@dataclass(frozen=True)
class FeynmanGraph:
    """Loop-free multigraph: edges are (i, j, multiplicity) with i < j."""

    vertices: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.vertices < 1:
            raise ValueError("vertex count must be at least 1")
        seen = set()
        for i, j, mult in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i} is not supported")
            if not (1 <= i < j <= self.vertices):
                raise ValueError(f"bad edge ({i}, {j})")
            if mult < 1:
                raise ValueError("edge multiplicity must be at least 1")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge entry ({i}, {j})")
            seen.add((i, j))
        if self.edges != tuple(sorted(self.edges)):
            raise ValueError("edges must be sorted")

    @classmethod
    def make(cls, vertices: int, edges: Sequence[tuple[int, int, int]]) -> "FeynmanGraph":
        merged: dict[tuple[int, int], int] = {}
        for i, j, mult in edges:
            a, b = (i, j) if i < j else (j, i)
            merged[(a, b)] = merged.get((a, b), 0) + mult
        return cls(vertices, tuple(sorted((i, j, m) for (i, j), m in merged.items())))

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data: dict) -> "FeynmanGraph":
        vertices, edges = data["vertices"], data["edges"]
        if not _is_int(vertices) or not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 3 and all(map(_is_int, e)) for e in edges
        ):
            raise ValueError("vertices must be an integer and edges [i, j, multiplicity] integers")
        return cls.make(vertices, [tuple(e) for e in edges])


def graph_from_matrix(matrix: AdjacencyMatrix, boundary: int | None = None) -> BernoulliGraph:
    if boundary is not None and boundary != matrix.size:
        raise ValueError(f"boundary {boundary} does not match matrix size {matrix.size}")
    return BernoulliGraph(matrix.size, matrix)


def graph_product(g1: BernoulliGraph, g2: BernoulliGraph) -> BernoulliGraph:
    """Disjoint union over a shared boundary: matrices add."""
    if g1.boundary != g2.boundary:
        raise ValueError(
            f"boundary mismatch ({g1.boundary} vs {g2.boundary}); embed first"
        )
    rows = tuple(
        tuple(a + b for a, b in zip(ra, rb))
        for ra, rb in zip(g1.matrix.rows, g2.matrix.rows)
    )
    return BernoulliGraph(g1.boundary, AdjacencyMatrix(rows))


def embed_graph(
    g: BernoulliGraph, positions: Sequence[int], new_boundary: int
) -> BernoulliGraph:
    """Relocate boundary vertices to the given strictly increasing positions."""
    positions = tuple(positions)
    if len(positions) != g.boundary:
        raise ValueError("one position per boundary vertex is required")
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly increasing")
    if positions and (positions[0] < 1 or positions[-1] > new_boundary):
        raise ValueError(f"positions out of range 1..{new_boundary}")
    upper = {}
    for i, j, mult in g.matrix.upper_items():
        upper[(positions[i - 1] - 1, positions[j - 1] - 1)] = mult
    return BernoulliGraph(new_boundary, AdjacencyMatrix.from_upper(new_boundary, upper))


def _block_tensor(factors: Sequence[Poly]) -> Poly:
    """The tensor ``f_1@0 * ... * f_m@(m-1)``: factor ``a`` on block ``a``."""
    tensor = Poly.one(factors[0].dim)
    for idx, f in enumerate(factors):
        tensor = tensor * f.relabel_blocks({0: idx})
    return tensor


def kontsevich_apply(
    g: BernoulliGraph, factors: Sequence[Poly], K: PropagatorMatrix
) -> Poly:
    """Act with the graph's poly-differential operator and merge blocks.

    Every internal vertex contributes one pair-operator application
    between its two boundary targets; the zero matrix acts as plain
    multiplication.
    """
    factors = list(factors)
    if len(factors) != g.boundary:
        raise ValueError(
            f"expected {g.boundary} factors, got {len(factors)}"
        )
    _check_ordinary(*factors)
    _check_dims(K, *factors)
    tensor = _block_tensor(factors)
    for i, j in g.internal_targets():
        tensor = apply_bivector(tensor, K, (i - 1,), (j - 1,))
        if tensor.is_zero():
            break
    return tensor.merge_blocks()


def star_via_graphs(
    factors: Sequence[Poly], K: PropagatorMatrix, order: int | None = None
) -> Poly:
    """Star product assembled from graph operators, layer by hbar layer.

    Layer ``k`` is ``hbar^k / k!`` times the sum of
    ``multinomial(k, M) * kontsevich_apply(M)`` over the matrices ``M``
    with ``k`` internal vertices.  Before its blocks merge, the image of
    ``M`` is one :func:`apply_bivector` on the image of its prefix ``M'``
    (``M`` without its last internal vertex), kept from the previous layer.
    Zero images are not kept, and the walk stops at a layer with none.
    Every layer is summed in place over the common denominator
    ``kmax!``, so the sum divides once per output term.

    The independent oracle for :func:`starwick.star.star_multi`, which
    folds the pairwise product instead of summing over adjacency matrices.
    """
    factors = _check_factors(factors, K, order)
    m = len(factors)
    degrees = [f.total_degree() for f in factors]
    kmax = sum(degrees) // 2
    if order is not None:
        kmax = min(kmax, order)
    top = math.factorial(kmax)
    slots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    tensor = _block_tensor(factors)
    acc = _TermSum()

    def add(image: Poly, weight: CoeffElement) -> None:
        for vm, ce in image.items():
            acc.add(vm.merged(), ce, weight)

    add(tensor, CoeffElement.from_rational(top))
    # Images keyed by the matrix's upper-triangle values, row-major.
    images = {(0,) * len(slots): tensor}
    for k in range(1, kmax + 1):
        hbar, scale = CoeffElement.hbar(k), top // math.factorial(k)
        prev, images = images, {}
        for matrix in enumerate_adjacency_by_degree(m, 2 * k, row_caps=degrees):
            values = tuple(matrix.upper_values())
            # The last internal vertex sits at the last nonzero slot.
            last = max(s for s, v in enumerate(values) if v)
            base = prev.get(values[:last] + (values[last] - 1,) + values[last + 1 :])
            if base is None:
                continue
            i, j = slots[last]
            image = apply_bivector(base, K, (i,), (j,))
            if image:
                images[values] = image
                add(image, hbar * (scale * multinomial(k, values)))
        if not images:
            break
    result = acc.poly(tensor.dim, top)
    if order is not None:
        result = result.truncate_hbar(order)
    return result


def to_feynman(g: BernoulliGraph) -> FeynmanGraph:
    """Forget internal vertices: each contributes one boundary edge."""
    edges = tuple(sorted((i, j, mult) for i, j, mult in g.matrix.upper_items()))
    return FeynmanGraph(g.boundary, edges)


def from_feynman(graph: FeynmanGraph) -> BernoulliGraph:
    """Inverse assignment: one internal vertex per edge copy."""
    upper = {(i - 1, j - 1): mult for i, j, mult in graph.edges}
    return BernoulliGraph(
        graph.vertices, AdjacencyMatrix.from_upper(graph.vertices, upper)
    )


def export_dot(graph: "BernoulliGraph | FeynmanGraph") -> str:
    """Render a graph as DOT text.

    Feynman graphs become undirected multigraphs with one statement per
    parallel edge; the bipartite graphs become digraphs with boxed
    internal vertices and edges directed toward the boundary.
    """
    lines: list[str] = []
    if isinstance(graph, FeynmanGraph):
        lines.append("graph G {")
        for v in range(1, graph.vertices + 1):
            lines.append(f"  v{v};")
        for i, j, mult in graph.edges:
            lines.extend([f"  v{i} -- v{j};"] * mult)
        lines.append("}")
    elif isinstance(graph, BernoulliGraph):
        lines.append("digraph G {")
        targets = graph.internal_targets()
        for idx in range(1, len(targets) + 1):
            lines.append(f"  i{idx} [shape=box];")
        for v in range(1, graph.boundary + 1):
            lines.append(f"  b{v} [shape=circle];")
        for idx, (i, j) in enumerate(targets, start=1):
            lines.append(f"  i{idx} -> b{i};")
            lines.append(f"  i{idx} -> b{j};")
        lines.append("}")
    else:
        raise TypeError(f"cannot export {type(graph).__name__} as DOT")
    return "\n".join(lines) + "\n"
