import json
import random

import pytest

from starwick import (
    AdjacencyMatrix,
    BernoulliGraph,
    CoeffElement,
    FeynmanGraph,
    Poly,
    PropagatorMatrix,
    PropagatorSymbol,
    embed_graph,
    enumerate_adjacency_by_degree,
    export_dot,
    from_feynman,
    graph_from_matrix,
    graph_product,
    kontsevich_apply,
    star_multi,
    star_via_graphs,
    to_feynman,
)

import starwick.graphs
from starwick.cli import main

from helpers import graph_sum_oracle, rand_entry, rand_matrix, rand_poly


def x(i, d):
    return Poly.variable(i, d)


def K_sym(i, j, family="K"):
    return CoeffElement.from_symbol(PropagatorSymbol(family, i, j))


def b_matrix(m, **upper):
    entries = {}
    for key, value in upper.items():
        i, j = (int(c) for c in key.removeprefix("m"))
        entries[(i - 1, j - 1)] = value
    return AdjacencyMatrix.from_upper(m, entries)


class TestConstruction:
    def test_zero_matrix_has_no_internal_vertices(self):
        g = graph_from_matrix(AdjacencyMatrix.zero(2))
        assert g.internal_count() == 0

    def test_basic_graph(self):
        g = graph_from_matrix(b_matrix(2, m12=1))
        assert g.internal_count() == 1
        assert g.internal_targets() == [(1, 2)]

    def test_degree_six_graph(self):
        g = graph_from_matrix(b_matrix(3, m12=2, m13=1))
        assert g.internal_count() == 3
        assert g.matrix.degree() == 6

    def test_boundary_mismatch_rejected(self):
        with pytest.raises(ValueError):
            graph_from_matrix(AdjacencyMatrix.zero(2), boundary=3)


class TestProductAndEmbedding:
    def test_product_adds_matrices(self):
        g1 = graph_from_matrix(b_matrix(3, m12=1))
        g2 = graph_from_matrix(b_matrix(3, m13=2))
        assert graph_product(g1, g2).matrix == b_matrix(3, m12=1, m13=2)

    def test_zero_graph_is_identity(self):
        g = graph_from_matrix(b_matrix(3, m23=2))
        e = graph_from_matrix(AdjacencyMatrix.zero(3))
        assert graph_product(e, g) == g

    def test_squaring_doubles_entry(self):
        g = graph_from_matrix(b_matrix(2, m12=1))
        assert graph_product(g, g).matrix.rows[0][1] == 2

    def test_mismatched_boundaries_rejected(self):
        with pytest.raises(ValueError, match="embed"):
            graph_product(
                graph_from_matrix(AdjacencyMatrix.zero(2)),
                graph_from_matrix(AdjacencyMatrix.zero(3)),
            )

    def test_embed_basic_graph(self):
        b1 = graph_from_matrix(b_matrix(2, m12=1))
        assert embed_graph(b1, (1, 3), 3).matrix == b_matrix(3, m13=1)

    def test_identity_embedding(self):
        g = graph_from_matrix(b_matrix(3, m12=2, m23=1))
        assert embed_graph(g, (1, 2, 3), 3) == g

    def test_relocation(self):
        g = graph_from_matrix(b_matrix(2, m12=1))
        assert embed_graph(g, (2, 3), 4).matrix == b_matrix(4, m23=1)

    def test_bad_positions_rejected(self):
        g = graph_from_matrix(b_matrix(2, m12=1))
        with pytest.raises(ValueError):
            embed_graph(g, (3, 1), 3)
        with pytest.raises(ValueError):
            embed_graph(g, (1, 4), 3)


class TestOperatorAction:
    def test_zero_graph_multiplies(self):
        d = 2
        g = graph_from_matrix(AdjacencyMatrix.zero(2))
        f1, f2 = x(1, d) + 1, x(2, d) ** 2
        assert kontsevich_apply(g, [f1, f2], PropagatorMatrix.family("K", d)) == f1 * f2

    def test_single_edge_on_coordinates(self):
        d = 3
        g = graph_from_matrix(b_matrix(3, m12=1))
        result = kontsevich_apply(g, [x(1, d), x(2, d), x(3, d)], PropagatorMatrix.family("K", d))
        assert result == x(3, d) * K_sym(1, 2)

    def test_double_edge_on_squares(self):
        # two pair-operator applications, no exponential weight here
        d = 2
        g = graph_from_matrix(b_matrix(2, m12=2))
        result = kontsevich_apply(g, [x(1, d) ** 2, x(2, d) ** 2], PropagatorMatrix.family("K", d))
        assert result == Poly.constant(K_sym(1, 2) ** 2 * 4, d)

    def test_factor_count_checked(self):
        g = graph_from_matrix(AdjacencyMatrix.zero(2))
        with pytest.raises(ValueError):
            kontsevich_apply(g, [x(1, 2)], PropagatorMatrix.family("K", 2))

    def test_operator_homomorphism(self):
        rng = random.Random(21)
        for _ in range(10):
            d = rng.randint(1, 2)
            m = rng.randint(2, 3)
            K = rand_matrix(rng, d)
            mats = enumerate_adjacency_by_degree(m, 2)
            g1 = graph_from_matrix(mats[rng.randrange(len(mats))])
            g2 = graph_from_matrix(mats[rng.randrange(len(mats))])
            fs = [rand_poly(rng, d, max_degree=2, terms=2) for _ in range(m)]
            # applying the product graph equals composing the applications;
            # compose by acting with g2's targets first, then g1's
            composed = kontsevich_apply(graph_product(g1, g2), fs, K)
            staged = Poly.one(d)
            for idx, f in enumerate(fs):
                staged = staged * f.relabel_blocks({0: idx})
            from starwick import apply_bivector

            for i, j in g2.internal_targets() + g1.internal_targets():
                staged = apply_bivector(staged, K, (i - 1,), (j - 1,))
            assert composed == staged.merge_blocks()

    def test_distinct_graphs_give_distinct_operators(self):
        d = 3
        K = PropagatorMatrix.family("K", d)
        pool = []
        for deg in (0, 2, 4):
            pool.extend(enumerate_adjacency_by_degree(3, deg))
        signatures = []
        for matrix in pool:
            g = graph_from_matrix(matrix)
            rows = matrix.row_sums()
            fs = [x(i, d) ** rows[i - 1] if rows[i - 1] else Poly.one(d) for i in (1, 2, 3)]
            signatures.append(kontsevich_apply(g, fs, K))
        # a separating evaluation: the symbol content identifies the matrix
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                ga = graph_from_matrix(pool[a])
                gb = graph_from_matrix(pool[b])
                rows = tuple(
                    max(pool[a].row_sums()[i], pool[b].row_sums()[i]) for i in range(3)
                )
                fs = [x(i, d) ** rows[i - 1] for i in (1, 2, 3)]
                assert kontsevich_apply(ga, fs, K) != kontsevich_apply(gb, fs, K)


class TestStarViaGraphs:
    def test_matches_star_multi_on_coordinates(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        fs = [x(1, d), x(2, d)]
        assert star_via_graphs(fs, K) == star_multi(fs, K)

    def test_single_factor(self):
        d = 2
        f = x(1, d) ** 3 + x(2, d)
        assert star_via_graphs([f], PropagatorMatrix.family("K", d)) == f

    def test_squares_top_coefficient(self):
        d = 2
        K = PropagatorMatrix.family("K", d)
        result = star_via_graphs([x(1, d) ** 2, x(2, d) ** 2], K)
        assert result.constant_coeff().hbar_part(2) == K_sym(1, 2) ** 2 * 2

    def test_matches_star_multi_random(self):
        rng = random.Random(22)
        for _ in range(15):
            d = rng.randint(1, 3)
            m = rng.randint(1, 4)
            K = rand_matrix(rng, d)
            fs = [rand_poly(rng, d, max_degree=2, terms=2) for _ in range(m)]
            order = rng.choice([None, 1, 2, 3])
            assert star_via_graphs(fs, K, order) == star_multi(fs, K, order)
        # The shape the ``star`` command runs: a symbolic family matrix.
        d = 3
        for symmetric in (False, True):
            K = PropagatorMatrix.family("K", d, symmetric=symmetric)
            for order in (None, 2):
                fs = [rand_poly(rng, d, max_degree=3, terms=3) for _ in range(3)]
                assert star_via_graphs(fs, K, order) == star_multi(fs, K, order)


def graph_case(rng):
    """Factors, a matrix and an order: ``d`` 1 to 3, 1 to 4 factors,
    ``order`` None or 0 to 3, and a random rational matrix, a symmetric or
    non-symmetric symbol family, or a ``from_entries`` grid whose entries
    may carry ``hbar``."""
    d, m = rng.randint(1, 3), rng.randint(1, 4)
    order = rng.choice([None, 0, 1, 2, 3])
    kind = rng.randrange(4)
    if kind == 0:
        K = rand_matrix(rng, d)
    elif kind < 3:
        K = PropagatorMatrix.family("K", d, symmetric=kind == 1)
    else:
        K = PropagatorMatrix.from_entries(
            [[rand_entry(rng, i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]
        )
    fs = [rand_poly(rng, d, max_degree=3 if m < 4 else 2, terms=2) for _ in range(m)]
    return fs, K, order


class TestPrefixWalk:
    """The prefix walk of ``star_via_graphs`` against the per-graph sum."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_graph_sum(self, seed):
        rng = random.Random(3100 + seed)
        for _ in range(15):
            fs, K, order = graph_case(rng)
            assert star_via_graphs(fs, K, order) == graph_sum_oracle(fs, K, order)

    def test_one_application_per_nonzero_prefix(self, monkeypatch, capsys):
        calls = []
        kernel = starwick.graphs.apply_bivector

        def counted(*args):
            calls.append(args[2:])
            return kernel(*args)

        monkeypatch.setattr(starwick.graphs, "apply_bivector", counted)
        argv = ["star-graphs", "--dim", "2", "(x1 - 2*x2)^3", "(3*x1 + x2)^2", "(x1 + x2)^2"]
        assert main(argv) == 0
        # Matrices on 3 factors with row sums <= (3, 2, 2) whose prefix image
        # is nonzero; applying every graph to a fresh tensor took 24.
        assert len(calls) == 12
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert main(["star", *argv[1:]]) == 0
        assert capsys.readouterr().out == out

    def test_matrices_with_a_zero_prefix_image_are_skipped(self, monkeypatch):
        calls = []
        kernel = starwick.graphs.apply_bivector

        def counted(*args):
            calls.append(args[2:])
            return kernel(*args)

        fs = [x(1, 2) ** 2, x(1, 2) ** 2, x(2, 2) ** 2]
        K = PropagatorMatrix.from_entries([[0, 1], [0, 0]])
        monkeypatch.setattr(starwick.graphs, "apply_bivector", counted)
        result = star_via_graphs(fs, K)
        monkeypatch.undo()
        # 10 matrices with 1 to 3 internal vertices fit the row caps
        # (2, 2, 2); only K_12 is nonzero, so 4 have a zero prefix image.
        assert len(calls) == 6
        assert result == star_multi(fs, K) == graph_sum_oracle(fs, K)


class TestFeynmanBijection:
    def test_basic_graph_maps_to_single_edge(self):
        g = graph_from_matrix(b_matrix(2, m12=1))
        f = to_feynman(g)
        assert f.vertices == 2 and f.edges == ((1, 2, 1),)

    def test_zero_graph_is_edgeless(self):
        assert to_feynman(graph_from_matrix(AdjacencyMatrix.zero(3))).edges == ()

    def test_multiplicity_transfer(self):
        g = graph_from_matrix(b_matrix(3, m12=2, m13=1))
        assert to_feynman(g).edges == ((1, 2, 2), (1, 3, 1))

    def test_triangle_back_to_matrix(self):
        triangle = FeynmanGraph.make(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])
        assert from_feynman(triangle).matrix == b_matrix(3, m12=1, m13=1, m23=1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FeynmanGraph.make(2, [(1, 1, 1)])

    def test_round_trip_exhaustive(self):
        for m in range(1, 6):
            for deg in range(0, 9, 2):
                for matrix in enumerate_adjacency_by_degree(m, deg):
                    g = graph_from_matrix(matrix)
                    assert from_feynman(to_feynman(g)) == g
        graphs = [
            FeynmanGraph.make(3, [(1, 2, 2)]),
            FeynmanGraph.make(4, [(1, 4, 1), (2, 3, 3)]),
        ]
        for f in graphs:
            assert to_feynman(from_feynman(f)) == f


class TestDotExport:
    def test_edgeless_feynman(self):
        dot = export_dot(FeynmanGraph.make(2, []))
        assert dot.startswith("graph G {")
        assert dot.count("--") == 0
        assert "v1;" in dot and "v2;" in dot

    def test_basic_bipartite_graph(self):
        dot = export_dot(graph_from_matrix(b_matrix(2, m12=1)))
        assert dot.startswith("digraph G {")
        assert dot.count("[shape=box]") == 1
        assert dot.count("[shape=circle]") == 2
        assert dot.count("->") == 2

    def test_parallel_edges_repeat_statements(self):
        dot = export_dot(FeynmanGraph.make(2, [(1, 2, 2)]))
        assert dot.count("v1 -- v2;") == 2


class TestJson:
    def test_bernoulli_round_trip(self):
        g = graph_from_matrix(b_matrix(3, m12=2, m23=1))
        data = g.to_json()
        assert data == {"m": 3, "matrix": [[0, 2, 0], [2, 0, 1], [0, 1, 0]]}
        assert BernoulliGraph.from_json(data) == g

    def test_feynman_round_trip(self):
        f = FeynmanGraph.make(4, [(1, 2, 1), (3, 4, 2)])
        data = f.to_json()
        assert data == {"vertices": 4, "edges": [[1, 2, 1], [3, 4, 2]]}
        assert FeynmanGraph.from_json(data) == f

    def test_json_text_round_trip(self):
        g = graph_from_matrix(b_matrix(3, m12=2, m23=1))
        assert BernoulliGraph.from_json(json.loads(json.dumps(g.to_json()))) == g
        f = to_feynman(g)
        assert FeynmanGraph.from_json(json.loads(json.dumps(f.to_json()))) == f

    @pytest.mark.parametrize("data", [
        {"m": 2.9, "matrix": [[0, 1], [1, 0]]},
        {"m": "2", "matrix": [[0, 1], [1, 0]]},
        {"m": True, "matrix": [[0]]},
    ])
    def test_bernoulli_refuses_non_integer_boundary(self, data):
        with pytest.raises(ValueError, match="boundary vertex count must be an integer"):
            BernoulliGraph.from_json(data)

    @pytest.mark.parametrize("data", [
        {"vertices": "3", "edges": [[1, 2.0, 1.5]]},
        {"vertices": 3, "edges": [[1, 2.0, 1.5]]},
        {"vertices": 3, "edges": [[1, 2, True]]},
        {"vertices": 3.0, "edges": [[1, 2, 1]]},
        {"vertices": 3, "edges": [[1, 2]]},
        {"vertices": 3, "edges": [(1, 2, 1)]},
        {"vertices": 3, "edges": "12"},
    ])
    def test_feynman_refuses_non_integer_fields(self, data):
        with pytest.raises(ValueError, match="vertices must be an integer"):
            FeynmanGraph.from_json(data)
