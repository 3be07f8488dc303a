import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from starwick import (
    Poly, PropagatorMatrix, WickMonomialSpec, cli, enumerate_adjacency_by_degree,
    enumerate_adjacency_by_rowsums, expectation_formula, expectation_oracle,
)
from starwick.cli import build_parser, main
from starwick.star import _Packing
from starwick.wick import _MAX_EXPECT_POWER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expect_spec(n, family="K"):
    """The Wick monomial of ``expect --n`` and ``expect-oracle --n``.  They
    order by the zero matrix, and this spec by the zero-diagonal family,
    which gives the same values (``test_zero_ordering_is_the_zero_diagonal_family``)."""
    return WickMonomialSpec(n, PropagatorMatrix.family(family, len(n), zero_diagonal=True),
                            PropagatorMatrix.family(family, len(n)))


def even_sequence(rng, d, top):
    """``d`` entries from 0 to ``top``, the last raised by one if the total is odd."""
    n = [rng.randint(0, top) for _ in range(d)]
    n[-1] += sum(n) % 2
    return tuple(n)


class TestStarCommands:
    def test_star_first_order(self, capsys):
        code, out, _ = run(capsys, "star", "--dim", "2", "--order", "2", "--sym", "K", "x1", "x2")
        assert code == 0
        assert out == "x1*x2 + hbar*K[K;1,2]\n"

    def test_star_graphs_agrees(self, capsys):
        args = ["--dim", "2", "--order", "3", "x1^2", "x2^2"]
        code1, out1, _ = run(capsys, "star", *args)
        code2, out2, _ = run(capsys, "star-graphs", *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("exprs", [
        ["x1", "x2"],
        ["(x1 + x2)^2", "x1*x2 - 1/2"],
        ["x1^2 - 3*x2", "2/3*x1*x2 + x3", "x2 + hbar*x3"],
        ["x1*x3^2 + x4*x5", "x5^2 - x1 + 7/5"],
    ], ids=["linear", "square", "three-factors", "five-variables"])
    @pytest.mark.parametrize("options", [[], ["--sym", "K"], ["--order", "1"],
                                         ["--sym", "K", "--order", "1"]],
                             ids=["plain", "sym", "order1", "sym-order1"])
    def test_star_and_star_graphs_print_the_same_text(self, capsys, exprs, options):
        dim = "5" if "x5" in " ".join(exprs) else "3"
        code1, out1, _ = run(capsys, "star", "--dim", dim, *options, *exprs)
        code2, out2, _ = run(capsys, "star-graphs", "--dim", dim, *options, *exprs)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("exprs", [
        ["(x1 - 2*x2)^3", "(3*x1 + x2)^2"],
        ["(x1 - 2*x2)^3", "(3*x1 + x2)^2", "(x1 + x2)^2"],
    ], ids=["two-factors", "three-factors"])
    def test_star_writes_the_last_product_without_decoding(self, monkeypatch, capsys, exprs):
        """No ``Poly.__str__``, no ``_Packing.coeff_element`` and no
        ``_Packing.unpack``: the fold carries every product packed, and the
        last is written straight from its packed terms."""
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper

        for owner, name in ((Poly, "__str__"), (_Packing, "coeff_element"), (_Packing, "unpack")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        argv = ["--dim", "2", "--sym", "K", *exprs]
        assert main(["star", *argv]) == 0
        out = capsys.readouterr().out
        assert calls == []
        monkeypatch.undo()
        assert main(["star-graphs", *argv]) == 0
        assert capsys.readouterr().out == out

    def test_poisson(self, capsys):
        code, out, _ = run(capsys, "poisson", "--dim", "2", "x1", "x2")
        assert code == 0
        assert out == "K[K;1,2] - K[K;2,1]\n"

    def test_poisson_on_hbar_carrying_input(self, capsys):
        # the hbar^1 part of star2(f,g) - star2(g,f) would drop the x1^2 terms
        code, out, _ = run(capsys, "poisson", "--dim", "2", "hbar*x1^2+x2", "x1*x2")
        assert code == 0
        assert out == (
            "2*hbar*K[K;1,2]*x1^2 - 2*hbar*K[K;2,1]*x1^2 - K[K;1,2]*x2 + K[K;2,1]*x2\n"
        )

    def test_determinism(self, capsys):
        argv = ["star", "--dim", "3", "x1+x2", "x2*x3"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestWickCommands:
    def test_wick_power(self, capsys):
        code, out, _ = run(capsys, "wick-power", "--dim", "1", "1", "4")
        assert code == 0
        assert out == "x1^4 + 6*hbar*K[K;1,1]*x1^2 + 3*hbar^2*K[K;1,1]^2\n"

    def test_wick_invert(self, capsys):
        code, out, _ = run(capsys, "wick-invert", "--dim", "1", "1", "2")
        assert code == 0
        assert out.splitlines() == ["2 1", "0 -hbar*K[K;1,1]"]

    def test_wick_invert_json(self, capsys):
        code, out, _ = run(capsys, "wick-invert", "--dim", "1", "1", "2", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"degree": 2, "coeff": "1"},
            {"degree": 0, "coeff": "-hbar*K[K;1,1]"},
        ]

    def test_expect_isserlis(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1,1,1,1", "--family", "K")
        assert code == 0
        assert out == (
            "K[K;1,2]*K[K;3,4] + K[K;1,3]*K[K;2,4] + K[K;1,4]*K[K;2,3]\n"
        )

    def test_expect_oracle_matches_for_multiplicity_free_case(self, capsys):
        for n in ("1,1,1,1", "1,1,1,1,1,1", "1,0,1,1,1"):
            _, formula, _ = run(capsys, "expect", "--n", n)
            _, oracle, _ = run(capsys, "expect-oracle", "--n", n)
            assert formula == oracle, n

    @pytest.mark.parametrize("n", [(2, 2, 1, 1), (3, 2, 1, 2), (2, 2, 2), (1, 3, 2, 2, 2)])
    def test_expect_is_the_oracle_over_power_factorials(self, capsys, n):
        # The top-hbar coefficient of the star product counts each matrix
        # prod n_i! times over (TestExpectationOracle.test_bridge_scaling).
        scaled = expectation_oracle(expect_spec(n)) * Fraction(1, math.prod(map(math.factorial, n)))
        assert run(capsys, "expect", "--n", ",".join(map(str, n))) == (0, f"{scaled}\n", "")

    @pytest.mark.parametrize("seed", range(4))
    def test_expect_prints_the_decoded_formula(self, capsys, seed):
        """``expect`` writes its text as the list of Feynman graphs; ``str``
        of the decoded :func:`expectation_formula`, the packed Isserlis sum,
        is the oracle.  Sequences reach ``d = 11``, where two-digit indices
        sort as numbers, hold zero entries and take either family."""
        rng = random.Random(1600 + seed)
        cases = [(1,) * 12] if seed == 0 else []
        cases += [tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 6))) for _ in range(6)]
        cases += [even_sequence(rng, d, 2) for d in (rng.randint(7, 9), 10, 11)]
        for n in cases:
            family = rng.choice("KP")
            code, out, _ = run(capsys, "expect", "--n", ",".join(map(str, n)), "--family", family)
            assert (code, out) == (0, f"{expectation_formula(expect_spec(n, family))}\n"), n

    def test_expect_builds_no_packed_term(self, capsys, monkeypatch):
        """``expect`` answers with the packed route refusing to run, so the
        formula test above compares two independent routes, and checks
        ``--n`` without building a propagator matrix."""
        n = (2, 3, 1, 2, 0, 2)
        expected = f"{expectation_formula(expect_spec(n))}\n"

        def refuse(*args):
            raise AssertionError("the packed route was called")

        monkeypatch.setattr("starwick.wick.expectation_formula", refuse)
        monkeypatch.setattr("starwick.star._Packing.__init__", refuse)
        monkeypatch.setattr("starwick.star._Packing.text", refuse)
        monkeypatch.setattr("starwick.star.PropagatorMatrix.family", refuse)
        monkeypatch.setattr("starwick.star.PropagatorMatrix.zero", refuse)
        assert run(capsys, "expect", "--n", ",".join(map(str, n))) == (0, expected, "")

    @pytest.mark.parametrize("command", ["expect", "expect-oracle"])
    @pytest.mark.parametrize("n", ["-1,2", "2,-2", "1,-1,2", "0,-3"])
    def test_negative_power_is_refused(self, capsys, command, n):
        # Each n is inadmissible, so a walk that skipped the check would print 0.
        # Given as its own token, the list must reach the same check.
        for argv in ([f"--n={n}"], ["--n", n]):
            assert run(capsys, command, *argv) == (
                2, "", "error: powers must be non-negative\n"), argv

    @pytest.mark.parametrize("seed", range(3))
    def test_expect_writes_one_term_per_matrix(self, capsys, seed):
        """Distinct graphs give distinct monomials, so nothing merges."""
        rng = random.Random(2800 + seed)
        for _ in range(4):
            n = even_sequence(rng, rng.randint(1, 6), 3)
            code, out, _ = run(capsys, "expect", "--n", ",".join(map(str, n)))
            terms = 0 if out == "0\n" else len(out.split(" + "))
            assert (code, terms) == (0, len(enumerate_adjacency_by_rowsums(n))), n

    def test_expect_family(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1,1", "--family", "P")
        assert code == 0
        assert out == "K[P;1,2]\n"

    @pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
    @pytest.mark.parametrize("command", ["expect", "expect-oracle"])
    def test_odd_total_is_silent_zero(self, capsys, command):
        assert run(capsys, command, "--n", "3") == (0, "0\n", "")


class TestCombinatCommands:
    def test_admissible_false(self, capsys):
        code, out, _ = run(capsys, "admissible", "--n", "3,1")
        assert code == 0
        assert out == "false\n"

    def test_admissible_true(self, capsys):
        code, out, _ = run(capsys, "admissible", "--n", "2,1,1")
        assert code == 0
        assert out == "true\n"

    def test_enum_adj_by_degree(self, capsys):
        code, out, _ = run(capsys, "enum-adj", "--dim", "3", "--deg", "2")
        assert code == 0
        assert out.splitlines() == [
            "[[0,0,0],[0,0,1],[0,1,0]]",
            "[[0,0,1],[0,0,0],[1,0,0]]",
            "[[0,1,0],[1,0,0],[0,0,0]]",
        ]

    def test_enum_adj_by_rowsums_json(self, capsys):
        code, out, _ = run(capsys, "enum-adj", "--n", "1,1,1,1", "--json")
        assert code == 0
        assert len(json.loads(out)) == 3

    @staticmethod
    def json_lines(matrices, as_json):
        """The oracle: ``enum-adj`` output as the per-matrix ``json.dumps``
        it was written with before each distinct row was written once."""
        rows = [m.tolist() for m in matrices]
        if as_json:
            return json.dumps(rows, separators=(",", ":"))
        return "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)

    @pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
    @pytest.mark.parametrize("selector", [
        ("--n", "2,2,2"), ("--n", "3,1"), ("--n", "2,1,2,1,2"), ("--n", "0,3,1,2"),
        ("--n", "0"), ("--n", "0,0"), ("--n", "2,0,2"), ("--n", "1,0,2,0,1"),
        ("--n", "2,2,0,2,2,0"), ("--n", "1,2,0,3,2"),
        ("--dim", "1", "--deg", "0"), ("--dim", "1", "--deg", "2"), ("--dim", "2", "--deg", "4"),
        ("--dim", "2", "--deg", "6"), ("--dim", "3", "--deg", "2"), ("--dim", "3", "--deg", "4"),
        ("--dim", "4", "--deg", "0"), ("--dim", "4", "--deg", "2"), ("--dim", "4", "--deg", "6"),
    ], ids=" ".join)
    def test_enum_adj_writes_the_json_of_each_matrix(self, capsys, selector, as_json):
        if selector[0] == "--n":
            matrices = enumerate_adjacency_by_rowsums(tuple(map(int, selector[1].split(","))))
        else:
            matrices = enumerate_adjacency_by_degree(int(selector[1]), int(selector[3]))
        flags = ["--json"] * as_json
        assert run(capsys, "enum-adj", *selector, *flags) == (
            0, self.json_lines(matrices, as_json) + "\n", "")

    def test_enum_adj_edge_outputs(self, capsys):
        assert run(capsys, "enum-adj", "--n", "3,1") == (0, "\n", "")
        assert run(capsys, "enum-adj", "--n", "3,1", "--json") == (0, "[]\n", "")
        assert run(capsys, "enum-adj", "--dim", "1", "--deg", "0") == (0, "[[0]]\n", "")
        assert run(capsys, "enum-adj", "--deg", "2") == (0, "[[0,1],[1,0]]\n", "")  # size 2
        assert run(capsys, "enum-adj", "--n", "2,2,2", "--json") == (
            0, "[[[0,1,1],[1,0,1],[1,1,0]]]\n", "")

    @pytest.mark.parametrize("n", ["-1,2", "2,-2", "0,-3"])
    def test_enum_adj_refuses_negative_row_sums(self, capsys, n):
        # The enumerator has no matrix for them, but an empty list would hide
        # the mistake in the input.
        for argv in ([f"--n={n}"], ["--n", n], ["--n", n, "--json"]):
            assert run(capsys, "enum-adj", *argv) == (
                2, "", "error: row sums must be non-negative\n"), argv

    def test_enum_adj_needs_one_selector(self, capsys):
        code, _, err = run(capsys, "enum-adj", "--dim", "2")
        assert code == 1
        assert "error" in err

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2,2")
        assert code == 0
        assert out == "0 2\n2 0\n"

    def test_witness_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2,2", "--json")
        assert code == 0
        assert out == "[[0,2],[2,0]]\n"

    def test_witness_inadmissible_is_computation_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3,1")
        assert code == 2
        assert "not admissible" in err

    def test_ssyt(self, capsys):
        code, out, _ = run(capsys, "ssyt", "--n", "2,1,1")
        assert code == 0
        assert out == "1 1\n2 3\n"

    def test_ssyt_json(self, capsys):
        code, out, _ = run(capsys, "ssyt", "--n", "2,2,1,1", "--json")
        assert code == 0
        assert json.loads(out) == {"row1": [1, 1, 2], "row2": [2, 3, 4]}


class TestFeynmanCommand:
    def test_dot_to_stdout(self, capsys):
        code, out, _ = run(capsys, "feynman", "[[0,1],[1,0]]")
        assert code == 0
        assert out.splitlines() == ["graph G {", "  v1;", "  v2;", "  v1 -- v2;", "}"]

    def test_dot_to_file(self, capsys, tmp_path):
        path = tmp_path / "out.dot"
        code, out, _ = run(capsys, "feynman", "[[0,2],[2,0]]", "--dot", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().count("v1 -- v2;") == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "feynman", "[[0,1],[1,0]]", "--json")
        assert code == 0
        assert json.loads(out) == {"vertices": 2, "edges": [[1, 2, 1]]}

    def test_malformed_matrix_is_usage_error(self, capsys):
        code, _, err = run(capsys, "feynman", "not json")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("matrix", [
        "[1,2]", "3", "[[0,null],[null,0]]",
        "[[0,1.7],[1.7,0]]", "[[0,true],[true,0]]", '[[0,"1"],["1",0]]',
    ])
    def test_non_integer_rows_are_refused(self, capsys, matrix):
        code, out, err = run(capsys, "feynman", matrix)
        assert code == 2
        assert out == ""
        assert err == "error: matrix must be a list of rows of integers\n"


@pytest.fixture
def grid_file(tmp_path):
    data = {
        "points": ["a", "b"],
        "kernel": [["1/2", 1], [1, 0]],
        "field": [1, 2],
        "hbar": 1,
        "mode": "rational",
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestFieldCommands:
    def test_field_star(self, capsys, grid_file):
        code, out, _ = run(capsys, "field-star", "--grid", grid_file, "x1", "x2")
        assert code == 0
        assert out == "3\n"

    def test_field_star_sym(self, capsys, grid_file):
        # A symbol on a grid reads the kernel entry as written, so field-star
        # takes no --sym.
        code, out, err = run(capsys, "field-star", "--grid", grid_file, "--sym", "K", "x1", "x2")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --sym\n")

    @pytest.mark.parametrize("grid, argv, expected", [
        ({"points": ["a", "b"], "kernel": [["0", "1"], ["5", "0"]], "field": ["1", "1"],
          "hbar": "1"}, ["field-star", "K[K;2,1]*x1", "1"], "5"),
        ({"points": ["a", "b", "c"], "kernel": [["1", "2", "3"], ["2", "5", "7"],
                                                ["3", "7", "11"]],
          "field": ["1", "2", "-3"], "hbar": "1"},
         ["functional-star", "--dim", "2", "K[K;2,1]*x1", "x2"], "1681"),
        ({"points": [f"p{i}" for i in range(10)],
          "kernel": [[f"{(i * j) % 7 - 3}/{i % 4 + 1}" for j in range(10)] for i in range(10)],
          "field": [f"{i % 5 - 2}/3" for i in range(10)], "hbar": "1/2"},
         ["field-star", "K[K;2,1]*x1", "1"], "1"),
    ], ids=["asymmetric", "cross-sampled", "ci-grid"])
    def test_grid_symbols_read_as_written(self, capsys, tmp_path, grid, argv, expected):
        # K[K;2,1] is kernel[2][1]: 5 on the asymmetric kernel, not the 1
        # above the diagonal; under cross-sampling K(s_2, t_1) even on a
        # symmetric kernel; and (-3/2) * (-2/3) on the CI smoke grid.
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        command, *rest = argv
        assert run(capsys, command, "--grid", str(path), *rest) == (0, expected + "\n", "")

    def test_field_expect(self, capsys, grid_file):
        code, out, _ = run(capsys, "field-expect", "--grid", grid_file, "--n", "1,1")
        assert code == 0
        assert out == "1\n"

    def test_functional_star_default_rule(self, capsys, grid_file):
        code, out, _ = run(
            capsys, "functional-star", "--grid", grid_file, "--dim", "1", "2", "3"
        )
        assert code == 0
        assert out == "24\n"  # 2 * 3 * (1 + 1)^2

    def test_functional_star_order_zero(self, capsys, grid_file):
        code, out, _ = run(
            capsys, "functional-star", "--grid", grid_file, "--dim", "1", "--order", "0",
            "x1", "x1",
        )
        assert code == 0
        assert out == "9\n"  # (phi(a) + phi(b))^2, no hbar term

    def test_functional_star_explicit_nodes(self, capsys, grid_file):
        code, out, _ = run(
            capsys,
            "functional-star",
            "--grid",
            grid_file,
            "--dim",
            "1",
            "--nodes",
            "a",
            "--weights",
            "1",
            "x1",
            "x1",
        )
        assert code == 0
        assert out == "3/2\n"  # phi(a)^2 + hbar * K(a, a)

    @pytest.mark.parametrize(
        "rule",
        [
            ("--nodes", "a", "--weights", "1/0"),
            ("--nodes", "a", "--weights", "abc"),
            ("--nodes", "a", "--weights", ""),
            ("--nodes", ""),
        ],
        ids=["1/0", "abc", "empty-weights", "empty-nodes"],
    )
    def test_bad_weights_are_usage_errors(self, capsys, grid_file, rule):
        code, out, err = run(
            capsys, "functional-star", "--grid", grid_file, "--dim", "1", *rule, "x1", "x1",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and rule[-2] in err

    @pytest.mark.parametrize(
        "rule, message",
        [(("--nodes", "a;b", "--weights", "1"), "--weights must list one weight per node"),
         (("--weights", "1,1"), "--weights requires --nodes")],
        ids=["count-mismatch", "without-nodes"],
    )
    def test_weights_must_match_the_nodes(self, capsys, grid_file, rule, message):
        code, out, err = run(
            capsys, "functional-star", "--grid", grid_file, "--dim", "1", *rule, "x1", "x1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_weights_refuse_exponent_notation_at_once(self, capsys, grid_file):
        # Fraction would build 10**999999999 exactly, a ~415 MB integer.
        start = time.perf_counter()
        code, out, err = run(
            capsys, "functional-star", "--grid", grid_file, "--dim", "1",
            "--nodes", "a;b", "--weights", "1e999999999,1", "x1", "x1",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: argument --weights")

    def test_zero_denominator_grid_is_computation_error(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"points": ["a"], "kernel": [["1/0"]], "field": [1]}))
        code, out, err = run(capsys, "field-star", "--grid", str(path), "x1", "x1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "zero denominator" in err

    def test_missing_grid_file_is_computation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "field-star", "--grid", str(tmp_path / "missing.json"), "x1", "x1"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", '"nan"', '"-inf"'])
    def test_non_finite_grid_is_computation_error(self, capsys, tmp_path, bad):
        # raw JSON text, so the NaN/Infinity literals reach the loader
        path = tmp_path / "grid.json"
        path.write_text(
            '{"points": ["a", "b"], "kernel": [[1, %s], [0.5, 0]],'
            ' "field": [1, 2], "hbar": 0.5, "mode": "float"}' % bad
        )
        code, out, err = run(
            capsys, "functional-star", "--grid", str(path), "--dim", "1", "x1", "x1"
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"points": 5}, "grid points must be a list, got int"),
            ({"kernel": [1, 2]}, "grid kernel row must be a list, got int"),
            ({"kernel": [[None, 1], [1, 0]], "mode": "float"}, "float mode cannot hold None"),
            ({"hbar": [1], "mode": "float"}, "float mode cannot hold [1]"),
            ({"hbar": True}, "booleans are not numbers"),
            ({"hbar": True, "mode": "float"}, "booleans are not numbers"),
            ({"symmetric": "false"}, "grid JSON has unknown keys: ['symmetric']"),
            ({"points": [1, None]}, "sample point labels must be strings"),
            ({"hbar": "1e999999999"},
             "rational mode refuses exponent notation in '1e999999999'"),
        ],
        ids=["points-int", "kernel-int-rows", "float-null-entry", "float-list-hbar",
             "bool-hbar", "float-bool-hbar", "string-symmetric", "null-label",
             "rational-exponent"],
    )
    def test_malformed_grid_is_computation_error(self, capsys, tmp_path, change, message):
        data = {"points": ["a", "b"], "kernel": [[0, 1], [1, 0]], "field": [1, 2], **change}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "field-expect", "--grid", str(path), "--n", "1,1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "data, message",
        [([], "grid JSON must be an object"),
         ({}, "grid JSON missing keys: ['field', 'kernel', 'points']")],
        ids=["list", "empty-object"],
    )
    def test_grid_must_be_an_object_with_the_keys(self, capsys, tmp_path, data, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "field-star", "--grid", str(path), "x1", "x1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [(["field-expect", "--n", "1,1,1,1,1,1,1"], "more powers than sample points"),
         (["field-expect", "--n", ",".join(["1"] * 100_000)], "more powers than sample points"),
         (["functional-star", "--dim", "1", "--nodes", "c", "--weights", "1", "x1", "x1"],
          "unknown sample point 'c'")],
        ids=["seven-powers", "many-powers", "unknown-node"],
    )
    def test_grid_points_bound_the_request(self, capsys, tmp_path, argv, message):
        points = [f"p{i}" for i in range(1, 7)]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"points": points, "kernel": [[0] * 6] * 6, "field": [1] * 6}))
        code, out, err = run(capsys, argv[0], "--grid", str(path), *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == 1

    def test_bad_expression_is_usage_error(self, capsys):
        code, _, err = run(capsys, "star", "--dim", "1", "x1^-1")
        assert code == 1
        assert "syntax error" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "star", "x1")
        assert code == 1

    @pytest.mark.parametrize("command", ["expect", "expect-oracle", "enum-adj", "admissible",
                                         "witness", "ssyt", "field-expect"])
    def test_negative_n_list_may_be_its_own_token(self, capsys, grid_file, command):
        """argparse may read a token such as "-1,2" as an option; every --n
        command reads it as its list, as it reads "--n=-1,2"."""
        grid = ["--grid", grid_file] if command == "field-expect" else []
        for n in ["-1,2", "-2", "-1,-1"]:
            joined = run(capsys, command, *grid, f"--n={n}")
            assert joined[0] == 2, (n, joined)
            assert run(capsys, command, *grid, "--n", n) == joined, n
        # An option after --n is still not its value.
        assert run(capsys, command, *grid, "--n", "--json")[0] == 1

    @pytest.mark.parametrize("command", ["field-expect", "expect"])
    def test_bad_n_is_usage_error_before_any_file_is_read(self, capsys, tmp_path, command):
        grid = ["--grid", str(tmp_path / "missing.json")] if command == "field-expect" else []
        code, out, err = run(capsys, command, *grid, "--n", "x")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--n" in err

    def test_zero_denominator_is_usage_error(self, capsys):
        code, out, err = run(capsys, "star", "--dim", "1", "1/0")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "zero denominator" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--dim", "1", "x1"],
            ["star-graphs", "--dim", "1", "x1"],
            ["field-star", "--grid", "unused.json", "x1", "x1"],
            ["functional-star", "--grid", "unused.json", "--dim", "1", "x1", "x1"],
        ],
    )
    def test_negative_order_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--order", "-1")
        assert code == 1
        assert out == ""
        assert "non-negative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["poisson", "--dim", "1", "--order", "1", "x1", "x1"],
            ["wick-power", "--dim", "1", "--order", "0", "1", "4"],
            ["wick-invert", "--dim", "1", "--order", "0", "1", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_order_is_usage_error_where_unused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["poisson", "--dim", "1", "--order", "1", "x1", "x1"], "--order"),
            (["poisson", "--dim", "1", "x1", "x1", "--order=1"], "--order"),
            (["expect", "--n", "1,1", "extra"], "extra"),
            (["wick-power", "--dim", "3", "2", "4", "--sym", "K"], "--sym"),
            (["wick-invert", "--dim", "3", "2", "4", "--sym", "K"], "--sym"),
            (["wick-power", "--dim", "3", "--sym", "K", "2", "4"], "--sym"),
            (["wick-invert", "--dim", "3", "--sym", "K", "2", "4"], "--sym"),
            (["field-star", "--grid", "unused.json", "--sym", "K", "x1", "x1"], "--sym"),
            (["functional-star", "--grid", "unused.json", "--dim", "1", "--sym", "K", "x1", "x1"],
             "--sym"),
        ],
        ids=["option-then-value", "option-equals-value", "positional", "wick-power-sym",
             "wick-invert-sym", "wick-power-sym-first", "wick-invert-sym-first",
             "field-star-sym", "functional-star-sym"],
    )
    def test_unrecognized_argument_is_named(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: unrecognized arguments: {named}\n"

    def test_abbreviated_options_are_not_unknown(self, capsys):
        # A unique prefix of a flag parses as the flag and is no unknown
        # option, so a positional's refusal keeps its message; an ambiguous
        # prefix keeps argparse's.
        assert run(capsys, "star", "--dim", "2", "--ord", "1", "x1", "x2") == \
            run(capsys, "star", "--dim", "2", "--order", "1", "x1", "x2")
        assert run(capsys, "wick-power", "--d", "3", "K", "4") == \
            (1, "", "error: argument index: invalid int value: 'K'\n")
        code, out, err = run(capsys, "enum-adj", "--d", "3", "--n", "2,2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ambiguous option: --d could match --dim, --deg")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enum-adj", "--n", "2,2,2", "--dim", "0"], "enum-adj --dim applies only with --deg"),
            (["feynman", "[[0,2],[2,0]]", "--dot", "out.dot", "--json"],
             "feynman takes --dot or --json, not both"),
            (["feynman", "[[0,1],[1,0]]", "--dot", ""],
             "argument --dot: expected a file path, got ''"),
        ],
        ids=["enum-adj-dim-with-n", "feynman-dot-with-json", "feynman-empty-dot"],
    )
    def test_options_that_do_not_combine(self, capsys, tmp_path, monkeypatch, argv, message):
        # Neither option is ignored: the pair is refused and nothing is written.
        # An empty --dot path names no file, so it is refused the same way
        # rather than read as "print the DOT text".
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--dim", "2", "--family", "a;b", "x1", "x2"],
            ["star", "--dim", "2", "--family", "", "x1", "x2"],
            ["star-graphs", "--dim", "2", "--sym", "K]", "x1", "x2"],
            ["poisson", "--dim", "2", "--sym", "1K", "x1", "x2"],
            ["expect", "--n", "2,2", "--family", "K["],
            ["expect-oracle", "--n", "1,1", "--family", "K-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_family_must_be_a_parser_identifier(self, capsys, argv):
        # K[family;i,j] is printed text that parse must read back.
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "identifier" in err


# Option strings (without -h/--help) and positionals of every subcommand.
SURFACE = {
    "star": (["--dim", "--family", "--order", "--sym"], ["exprs"]),
    "star-graphs": (["--dim", "--family", "--order", "--sym"], ["exprs"]),
    "poisson": (["--dim", "--family", "--sym"], ["exprs"]),
    "wick-power": (["--dim", "--family"], ["index", "power"]),
    "wick-invert": (["--dim", "--family", "--json"], ["index", "power"]),
    "expect": (["--family", "--n"], []),
    "expect-oracle": (["--family", "--n"], []),
    "enum-adj": (["--deg", "--dim", "--json", "--n"], []),
    "admissible": (["--n"], []),
    "witness": (["--json", "--n"], []),
    "ssyt": (["--json", "--n"], []),
    "feynman": (["--dot", "--json"], ["matrix"]),
    "field-star": (["--grid", "--order"], ["exprs"]),
    "field-expect": (["--grid", "--n"], []),
    "functional-star": (
        ["--dim", "--grid", "--nodes", "--order", "--weights"],
        ["exprs"],
    ),
}


@pytest.mark.parametrize("command", SURFACE)
def test_cli_surface(command):
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subs.choices) == list(SURFACE)
    actions = subs.choices[command]._actions
    options = sorted(
        s for a in actions for s in a.option_strings if s not in ("-h", "--help")
    )
    positionals = [a.dest for a in actions if not a.option_strings]
    assert (options, positionals) == SURFACE[command]


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # main reuses one parser; no call may leave state behind for the next,
    # such as a --sym list that keeps the family of an earlier call.
    argvs = [
        ["admissible", "--n", "1,1"],
        ["expect", "--n", "x"],
        ["witness", "--n", "3,1"],
        ["star", "--dim", "2", "--sym", "K", "x2", "x1"],
        ["star", "--dim", "2", "x2", "x1"],
    ]
    in_process = [run(capsys, *argv)[:2] for argv in argvs]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "starwick.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 1, 2, 0, 0]
    assert fresh[3][1] != fresh[4][1]


def test_output_does_not_depend_on_the_hash_seed():
    # Term order comes from sort keys, never from set or dict iteration order.
    argvs = [
        ["star", "--dim", "3", "--family", "L", "--sym", "K", "--sym", "L",
         "K[K;2,1]*x1 + K[K;1,3]*x2^2", "x3*x1 - x2", "K[K;3,3]*x1*x3 + x2"],
        ["expect", "--n", "2,3,1,2", "--family", "P"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outputs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        outputs.append([
            subprocess.run([sys.executable, "-m", "starwick.cli", *argv], capture_output=True,
                           env=env, timeout=60, check=True).stdout
            for argv in argvs
        ])
    assert outputs[0] == outputs[1]
    assert b"K[K;" in outputs[0][0] and b"K[L;" in outputs[0][0]


@pytest.mark.parametrize(
    "argv",
    [["expect", "--n", "8001,1"], ["expect", "--n", "99999999999,1"],
     ["field-expect", "--grid", "{grid}", "--n", "99999999999,1"]],
    ids=["expect-8001", "expect-huge", "field-expect-huge"],
)
def test_inadmissible_large_entries_vanish_at_once(argv, grid_file):
    # The closed-form test answers before any factorial or power table of
    # the size of an entry is built.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "starwick.cli", *(a.replace("{grid}", grid_file) for a in argv)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


@pytest.mark.parametrize(
    "argv",
    [["expect", "--n", "99999999999,99999999999"], ["expect", "--n", "3000,3000"],
     ["field-expect", "--grid", "{grid}", "--n", "99999999999,99999999999"],
     ["expect-oracle", "--n", "2001,2001"]],
    ids=["expect-huge", "expect-3000", "field-expect-huge", "expect-oracle-2001"],
)
def test_admissible_huge_entries_refused_at_once(argv, grid_file):
    # The total power is checked against the cap before any power table or
    # factorial is built, so the refusal is a clean exit 2 that names it.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "starwick.cli", *(a.replace("{grid}", grid_file) for a in argv)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: total power")
    assert f"cap of {_MAX_EXPECT_POWER}" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["wick-power", "--dim", "1", "1", "99999999999"],
     ["wick-invert", "--dim", "1", "1", "99999999999"],
     ["expect-oracle", "--n", "99999999999,99999999999"]],
    ids=["wick-power", "wick-invert", "expect-oracle"],
)
def test_huge_hermite_expansions_refused_at_once(argv):
    # power // 2 is checked against the Hermite cap before any term is built.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "starwick.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: power // 2 = 49999999999 exceeds the Hermite cap " \
                          f"of {_MAX_EXPECT_POWER}\n"


def test_huge_sparse_power_answers_at_once():
    # Square-and-multiply builds x1^99999999999 in 37 squarings.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "starwick.cli", "star", "--dim", "1",
                           "x1^99999999999", "x1"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "x1^100000000000 + 99999999999*hbar*K[K;1,1]*x1^99999999998\n", "")


def _run_cli(argv, timeout=10):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "starwick.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize(
    "argv, message",
    [(["enum-adj", "--dim", "12", "--deg", "30"],
      "error: row-state table exceeds the budget of 1000000 partial rows\n"),
     (["expect", "--n", ",".join(["6"] * 12)],
      "error: row-state table exceeds the budget of 1000000 partial rows\n"),
     (["enum-adj", "--n", ",".join(["3"] * 10)],
      "error: 103050570 matrices exceed the enumeration budget of 200000\n"),
     (["expect", "--n", ",".join(["3"] * 10)],
      "error: 103050570 terms exceed the matrix budget of 200000\n"),
     (["star", "--dim", "3", "(x1+x2+x3)^12", "(x1+x2+x3)^12"],
      "error: star product exceeds the budget of 1000000 terms\n"),
     (["wick-power", "--dim", "2000", "1", "2"],
      "error: a 2000x2000 family exceeds the budget of 1000000 entries\n"),
     (["expect-oracle", "--n", ",".join(["3"] * 8)],
      "error: star product exceeds the budget of 1000000 terms\n")],
    ids=["enum-adj-deg", "expect-6x12", "enum-adj-3x10", "expect-3x10", "star-dense-12",
         "wick-power-dim-2000", "expect-oracle-3x8"],
)
def test_runaway_tables_refused_by_the_budgets(argv, message):
    # Without the budgets each runs for minutes or grows past 5 GB; the
    # dense star product's total would reach 3.47 million terms.  The
    # 2000x2000 family took 34 s and a 3.1 GB peak to build, for a Wick
    # power that reads one entry; refused, it exits in about 0.2 s.  The
    # oracle's Wick-power chain on eight 3s is refused by the term budget
    # of its partial sums, which count terms before the degree cut: about
    # 3 s and a 494 MB peak to exit 2, against 23 s and 4 GB without the cut.
    proc = _run_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


def _write_grid(tmp_path, size, mode="rational"):
    """A ``size``-point grid of seeded small kernel and field values."""
    rng = random.Random(size)
    if mode == "float":
        value, hbar = lambda: round(rng.uniform(-1, 1), 6), 0.5  # noqa: E731
    else:
        value, hbar = lambda: f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}", "1/2"  # noqa: E731
    points = [f"p{i}" for i in range(size)]
    path = tmp_path / f"grid-{mode}-{size}.json"
    path.write_text(json.dumps({
        "points": points, "kernel": [[value() for _ in points] for _ in points],
        "field": [value() for _ in points], "hbar": hbar, "mode": mode}))
    return str(path)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("threes", [8, 10])
def test_field_expect_folds_grid_numbers(tmp_path, mode, threes):
    # On the grid's numbers the fold holds one number per row state: eight 3s
    # took seconds and ten 3s were refused (103,050,570 matrix terms) while
    # the fold ran over the symbol family.
    proc = _run_cli(["field-expect", "--grid", _write_grid(tmp_path, 10, mode),
                     "--n", ",".join(["3"] * threes)])
    assert (proc.returncode, proc.stderr) == (0, "")
    value = (float if mode == "float" else Fraction)(proc.stdout)
    assert value != 0


def test_field_expect_keeps_the_row_state_budget(tmp_path):
    proc = _run_cli(["field-expect", "--grid", _write_grid(tmp_path, 12), "--n", ",".join(["6"] * 12)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: row-state table exceeds the budget of 1000000 partial rows\n")


LONG = "1" * 5000


@pytest.mark.parametrize(
    "argv, option",
    [(["star", "--dim", LONG, "x1"], "--dim"),
     (["star", "--dim", "1", "--order", LONG, "x1"], "--order"),
     (["enum-adj", "--deg", LONG], "--deg"),
     (["enum-adj", "--dim", "-" + LONG, "--deg", "2"], "--dim"),
     (["wick-power", "--dim", "1", LONG, "2"], "index"),
     (["wick-invert", "--dim", "1", "1", LONG], "power"),
     (["expect", "--n", "1," + LONG], "--n"),
     (["field-expect", "--grid", "unused.json", "--n", LONG], "--n")],
    ids=["dim", "order", "deg", "negative-dim", "index", "power", "expect-n", "field-expect-n"],
)
def test_long_integer_options_name_their_length(capsys, argv, option):
    # Python converts at most 4,300 digits; the error gives the length, not
    # the 5,000 digits.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: argument {option}: integer of 5000 digits is too long\n")


@pytest.mark.parametrize(
    "argv, message",
    [(["star", "--dim", "x", "x1"], "argument --dim: invalid int value: 'x'"),
     (["expect", "--n", "1,x"], "argument --n: expected a comma-separated integer list, got '1,x'")],
    ids=["dim", "n"],
)
def test_malformed_integer_options_keep_their_message(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, code",
    [(["star", "--dim", "1", "(" * 300 + "x1" + ")" * 300, "x1"], 1),
     (["field-expect", "--grid", "{deep}", "--n", "1,1"], 2),
     (["feynman", "[" * 2000], 1)],
    ids=["star-parens", "grid-json", "feynman-json"],
)
def test_deep_nesting_is_a_clean_error(argv, code, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    proc = _run_cli([a.replace("{deep}", str(deep)) for a in argv])
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_long_witness_is_built_without_recursion():
    # One transfer per trailing 1 moves it onto the first vertex.
    n = (1200,) + (1,) * 1200
    proc = _run_cli(["witness", "--n", ",".join(map(str, n)), "--json"])
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = json.loads(proc.stdout)
    assert rows[0] == [0] + [1] * 1200
    assert all(row == [1] + [0] * 1200 for row in rows[1:])


def test_runtime_imports_only_the_standard_library():
    # -S keeps site hooks (.pth files of installed packages) out of sys.modules,
    # so what is left is what starwick itself imports.
    code = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from starwick.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["star", "--dim", "2", "x1", "x2"]), main(["expect", "--n", "2,2"]),
             main(["enum-adj", "--dim", "3", "--deg", "4"])]
print(json.dumps([codes, sorted({name.partition(".")[0] for name in sys.modules})]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    codes, modules = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert "starwick" in modules
    outside = set(modules) - set(sys.stdlib_module_names) - {"__main__", "starwick"}
    assert not outside, sorted(outside)


# Grid files every fuzzed argv may name, relative to its working directory.
FUZZ_GRIDS = {
    "grid.json": {"points": ["a", "b"], "kernel": [["1/2", 1], [-1, 0]], "field": [1, "2/3"]},
    "float.json": {
        "points": ["a", "b", "c"],
        "kernel": [[0.5, 1.0, -2.0], [1.0, 0.25, 0.0], [3.0, -1.0, 1.5]],
        "field": [1.0, -0.5, 2.0],
        "hbar": 0.5,
        "mode": "float",
    },
    "bad.json": {"points": ["a"], "kernel": [[1, 2]], "field": [1]},
}
# Values by argument type (a parser type, or else the flag or positional
# name), small enough that every command finishes at once: dimensions and
# exponents at most 3, short --n sequences.
FUZZ_VALUES = {
    int: ["1", "2", "3", "0", "-1"],
    cli._order: ["0", "1", "2"],
    cli._parse_n: ["1,1", "2,1,1", "3,3", "1,2,3", "2,2,2", "0,1", "2", "-1,1"],
    cli._family: ["K", "L"],
    cli._nodes: ["a", "a;b", "a,b;b,a", "b,c;a,a", "z"],
    cli._weights: ["1", "1/2,-1", "1e5", "2/3,1"],
    "--grid": ["grid.json", "float.json", "bad.json", "missing.json", "."],
    "exprs": ["x1", "x2^2", "x1*x2 + 1", "x3^3", "hbar*x1", "K[K;1,2]*x1", "2/3*x2",
              "x1^-1", "x4", "K[L;2,1]"],
    "matrix": ["[[0,1],[1,0]]", "[[0,2,1],[2,0,0],[1,0,0]]", "[[0]]", "[1]", "null", "{}"],
    "--dot": ["out.dot", "."],
}
ANY_VALUE = [v for values in FUZZ_VALUES.values() for v in values] + ["--", "-", "--help"]


@st.composite
def fuzzed_argv(draw):
    """A subcommand of ``cli._COMMANDS`` with its positionals and most of its
    flags, in any order (argparse reads a positional's values only side by
    side).  A value mostly suits its argument's type; now and then it, the
    subcommand or one more token is junk."""
    name, _, _, arguments = draw(st.sampled_from(cli._COMMANDS))
    junk = st.sampled_from(ANY_VALUE) | st.text(max_size=4)

    def value(flag, options):
        pool = FUZZ_VALUES.get(options.get("type"), FUZZ_VALUES.get(flag, ANY_VALUE))
        return draw(st.sampled_from(pool) if draw(st.integers(0, 9)) else junk)

    chunks = []
    for argument in arguments:
        flag, options = cli._ARGS[argument] if isinstance(argument, str) else argument
        if not flag.startswith("-"):
            count = options.get("nargs", 1)
            count = draw(st.integers(1, 3)) if count == "+" else count
            chunks.append([value(flag, options) for _ in range(count)])
        elif draw(st.integers(0, 7)):
            takes_value = options.get("action") != "store_true"
            chunks.append([flag, value(flag, options)] if takes_value else [flag])
    if draw(st.integers(0, 3)) == 0:
        chunks.append([draw(junk)])
    if draw(st.integers(0, 9)) == 0:
        name = draw(junk)
    return [name, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuzzed_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    """No argv gives a traceback; the exit status is 0, 1 or 2 (``--help``
    exits 0 through argparse).  Each argv runs in a fresh directory, so a
    ``--dot`` path writes nothing the next one reads."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, data in FUZZ_GRIDS.items():
            Path(work, name).write_text(json.dumps(data))
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    assert code in (0, 1, 2), argv
