import json

import pytest

from starwick.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_poisson(self, capsys):
        code, out, _ = run(capsys, "poisson", "--dim", "2", "x1", "x2")
        assert code == 0
        assert out == "K[K;1,2] - K[K;2,1]\n"

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

    def test_expect_isserlis(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "1,1,1,1", "--family", "K")
        assert code == 0
        assert out == (
            "K[K;1,2]*K[K;3,4] + K[K;1,3]*K[K;2,4] + K[K;1,4]*K[K;2,3]\n"
        )

    def test_expect_oracle_matches_for_multiplicity_free_case(self, capsys):
        _, formula, _ = run(capsys, "expect", "--n", "1,1,1,1")
        _, oracle, _ = run(capsys, "expect-oracle", "--n", "1,1,1,1")
        assert formula == oracle


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

    def test_enum_adj_needs_one_selector(self, capsys):
        code, _, err = run(capsys, "enum-adj", "--dim", "2")
        assert code == 1
        assert "error" in err

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2,2")
        assert code == 0
        assert out == "0 2\n2 0\n"

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
            ["poisson", "--dim", "1", "x1", "x1"],
            ["field-star", "--grid", "unused.json", "x1", "x1"],
            ["functional-star", "--grid", "unused.json", "--dim", "1", "x1", "x1"],
        ],
    )
    def test_negative_order_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--order", "-1")
        assert code == 1
        assert out == ""
        assert "non-negative" in err
