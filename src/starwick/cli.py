"""Command-line surface: one subcommand per engine capability.

Output is canonical text by default, ``--json`` switches to the JSON
encodings, ``--dot PATH`` writes graphs as DOT.  Exit status is 0 on
success, 1 on a usage error (bad flags or malformed expressions) and 2
on a computation error (for example an inadmissible sequence).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import Poly
from .combinat import (
    AdjacencyMatrix,
    admissible_witness,
    enumerate_adjacency_by_degree,
    enumerate_adjacency_by_rowsums,
    is_admissible,
    ssyt_two_row,
)
from .exprparse import ParseError, parse
from .fields import KernelGrid, QuadratureRule, field_expectation, field_star, functional_star
from .graphs import export_dot, graph_from_matrix, star_via_graphs, to_feynman
from .star import PropagatorMatrix, poisson_bracket, star_multi
from .wick import WickMonomialSpec, expectation_formula, expectation_oracle, wick_power, wick_unpower


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_n(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--n expects a comma-separated integer list, got {text!r}")


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _num_text(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return repr(value)


def _family_matrix(args, dim: int) -> PropagatorMatrix:
    symmetric = args.family in set(args.sym or [])
    return PropagatorMatrix.family(args.family, dim, symmetric=symmetric)


def _parse_exprs(args, dim: int) -> list[Poly]:
    return [parse(text, dim, set(args.sym or [])) for text in args.exprs]


def _load_grid(path: str) -> KernelGrid:
    with open(path, "r", encoding="utf-8") as handle:
        return KernelGrid.from_json(handle.read())


def _matrix_lines(matrix: AdjacencyMatrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in matrix.rows)


def _cmd_star(args) -> str:
    factors = _parse_exprs(args, args.dim)
    K = _family_matrix(args, args.dim)
    return str(star_multi(factors, K, args.order))


def _cmd_star_graphs(args) -> str:
    factors = _parse_exprs(args, args.dim)
    K = _family_matrix(args, args.dim)
    return str(star_via_graphs(factors, K, args.order))


def _cmd_poisson(args) -> str:
    f, g = _parse_exprs(args, args.dim)
    K = _family_matrix(args, args.dim)
    return str(poisson_bracket(f, g, K))


def _cmd_wick_power(args) -> str:
    K = _family_matrix(args, args.dim)
    return str(wick_power(args.index, args.power, K, args.dim))


def _cmd_wick_invert(args) -> str:
    K = _family_matrix(args, args.dim)
    terms = wick_unpower(args.index, args.power, K, args.dim)
    if args.json:
        return json.dumps(
            [{"degree": deg, "coeff": str(coeff)} for coeff, deg in terms]
        )
    return "\n".join(f"{deg} {coeff}" for coeff, deg in terms)


def _wick_spec(args, powers: tuple[int, ...]) -> WickMonomialSpec:
    d = len(powers)
    return WickMonomialSpec(
        powers,
        PropagatorMatrix.family(args.family, d, zero_diagonal=True),
        PropagatorMatrix.family(args.family, d),
    )


def _cmd_expect(args) -> str:
    powers = _parse_n(args.n)
    return str(expectation_formula(_wick_spec(args, powers)))


def _cmd_expect_oracle(args) -> str:
    powers = _parse_n(args.n)
    return str(expectation_oracle(_wick_spec(args, powers)))


def _cmd_enum_adj(args) -> str:
    if (args.deg is None) == (args.n is None):
        raise _UsageError("enum-adj needs exactly one of --deg or --n")
    if args.deg is not None:
        matrices = enumerate_adjacency_by_degree(args.dim, args.deg)
    else:
        matrices = enumerate_adjacency_by_rowsums(_parse_n(args.n))
    rows = [m.tolist() for m in matrices]
    if args.json:
        return json.dumps(rows, separators=(",", ":"))
    return "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)


def _cmd_admissible(args) -> str:
    return "true" if is_admissible(_parse_n(args.n)) else "false"


def _cmd_witness(args) -> str:
    matrix = admissible_witness(_parse_n(args.n))
    if args.json:
        return json.dumps(matrix.tolist(), separators=(",", ":"))
    return _matrix_lines(matrix)


def _cmd_ssyt(args) -> str:
    tableau = ssyt_two_row(_parse_n(args.n))
    if args.json:
        return json.dumps(tableau.to_json(), separators=(",", ":"))
    return "\n".join(
        " ".join(str(v) for v in row) for row in (tableau.row1, tableau.row2)
    )


def _cmd_feynman(args) -> str | None:
    try:
        rows = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"matrix must be JSON rows: {exc}")
    graph = to_feynman(graph_from_matrix(AdjacencyMatrix.from_rows(rows)))
    if args.json:
        return json.dumps(graph.to_json(), separators=(",", ":"))
    dot = export_dot(graph)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
        return None
    return dot.rstrip("\n")


def _cmd_field_star(args) -> str:
    grid = _load_grid(args.grid)
    f = parse(args.exprs[0], grid.size, set(args.sym or []))
    g = parse(args.exprs[1], grid.size, set(args.sym or []))
    return _num_text(field_star(f, g, grid, args.order))


def _cmd_field_expect(args) -> str:
    grid = _load_grid(args.grid)
    return _num_text(field_expectation(_parse_n(args.n), grid))


def _cmd_functional_star(args) -> str:
    grid = _load_grid(args.grid)
    f = parse(args.exprs[0], args.dim, set(args.sym or []))
    g = parse(args.exprs[1], args.dim, set(args.sym or []))
    if args.nodes:
        nodes = tuple(
            tuple(label.strip() for label in chunk.split(","))
            for chunk in args.nodes.split(";")
        )
        if args.weights:
            weights = tuple(Fraction(w) for w in args.weights.split(","))
            if len(weights) != len(nodes):
                raise _UsageError("--weights must list one weight per node")
        else:
            weights = tuple(Fraction(1) for _ in nodes)
        rule = QuadratureRule(nodes, weights)
    else:
        if args.weights:
            raise _UsageError("--weights requires --nodes")
        rule = QuadratureRule.all_tuples(grid, args.dim)
    return _num_text(functional_star(f, g, rule, grid, args.order))


def _add_common(sub: argparse.ArgumentParser, *, dim: bool = False, exprs: int = 0) -> None:
    if dim:
        sub.add_argument("--dim", type=int, required=True, help="number of variables")
    sub.add_argument("--order", type=_order, default=None, help="hbar truncation order")
    sub.add_argument("--family", default="K", help="propagator family name")
    sub.add_argument(
        "--sym", action="append", default=[], metavar="FAMILY",
        help="declare a family symmetric (repeatable)",
    )
    if exprs:
        nargs = "+" if exprs < 0 else exprs
        sub.add_argument("exprs", nargs=nargs, help="polynomial expressions")


def build_parser() -> _Parser:
    parser = _Parser(prog="starwick", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("star", help="multi-factor star product")
    _add_common(sub, dim=True, exprs=-1)
    sub.set_defaults(handler=_cmd_star)

    sub = subs.add_parser("star-graphs", help="star product assembled from graphs")
    _add_common(sub, dim=True, exprs=-1)
    sub.set_defaults(handler=_cmd_star_graphs)

    sub = subs.add_parser("poisson", help="Poisson bracket of two polynomials")
    _add_common(sub, dim=True, exprs=2)
    sub.set_defaults(handler=_cmd_poisson)

    sub = subs.add_parser("wick-power", help="Wick power of one coordinate")
    _add_common(sub, dim=True)
    sub.add_argument("index", type=int, help="variable index (1-based)")
    sub.add_argument("power", type=int, help="power")
    sub.set_defaults(handler=_cmd_wick_power)

    sub = subs.add_parser("wick-invert", help="expand a plain power in Wick powers")
    _add_common(sub, dim=True)
    sub.add_argument("index", type=int)
    sub.add_argument("power", type=int)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_wick_invert)

    sub = subs.add_parser("expect", help="combinatorial Wick-monomial expectation")
    sub.add_argument("--n", required=True, help="comma-separated powers")
    sub.add_argument("--family", default="K")
    sub.set_defaults(handler=_cmd_expect)

    sub = subs.add_parser("expect-oracle", help="brute-force Wick-monomial expectation")
    sub.add_argument("--n", required=True)
    sub.add_argument("--family", default="K")
    sub.set_defaults(handler=_cmd_expect_oracle)

    sub = subs.add_parser("enum-adj", help="enumerate adjacency matrices")
    sub.add_argument("--dim", type=int, default=2)
    sub.add_argument("--deg", type=int, default=None, help="total degree")
    sub.add_argument("--n", default=None, help="prescribed row sums")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_enum_adj)

    sub = subs.add_parser("admissible", help="closed-form admissibility test")
    sub.add_argument("--n", required=True)
    sub.set_defaults(handler=_cmd_admissible)

    sub = subs.add_parser("witness", help="adjacency matrix realizing row sums")
    sub.add_argument("--n", required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_witness)

    sub = subs.add_parser("ssyt", help="two-row tableau of an admissible sequence")
    sub.add_argument("--n", required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_ssyt)

    sub = subs.add_parser("feynman", help="DOT export of the multigraph of a matrix")
    sub.add_argument("matrix", help="adjacency matrix as JSON rows")
    sub.add_argument("--dot", metavar="PATH", default=None, help="write DOT here")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(handler=_cmd_feynman)

    sub = subs.add_parser("field-star", help="star product of densities on a grid")
    sub.add_argument("--grid", required=True, metavar="FILE")
    sub.add_argument("--order", type=_order, default=None)
    sub.add_argument("--sym", action="append", default=[])
    sub.add_argument("exprs", nargs=2)
    sub.set_defaults(handler=_cmd_field_star)

    sub = subs.add_parser("field-expect", help="field expectation on a grid")
    sub.add_argument("--grid", required=True, metavar="FILE")
    sub.add_argument("--n", required=True)
    sub.set_defaults(handler=_cmd_field_expect)

    sub = subs.add_parser("functional-star", help="quadrature star product of functionals")
    sub.add_argument("--grid", required=True, metavar="FILE")
    sub.add_argument("--dim", type=int, required=True, help="density arity")
    sub.add_argument("--order", type=_order, default=None)
    sub.add_argument("--sym", action="append", default=[])
    sub.add_argument("--nodes", default=None, help="semicolon-separated label tuples")
    sub.add_argument("--weights", default=None, help="comma-separated weights")
    sub.add_argument("exprs", nargs=2)
    sub.set_defaults(handler=_cmd_functional_star)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output = args.handler(args)
    except (_UsageError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if output is not None:
        print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
