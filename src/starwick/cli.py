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
from functools import cache, partial
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
from .exprparse import ParseError, parse, _IDENT_RE
from .fields import KernelGrid, QuadratureRule, _decode_number, field_expectation, field_star
from .fields import functional_star
from .graphs import export_dot, graph_from_matrix, star_via_graphs, to_feynman
from .star import PropagatorMatrix, poisson_bracket, star_multi, _Packing
from .wick import WickMonomialSpec, expectation_oracle, wick_power, wick_unpower, _expectation_terms


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        """As argparse's, but an unknown option is named alone: argparse
        hands the value after it to the positionals, so the other left-over
        tokens are not part of the mistake."""
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            options = [a.split("=", 1)[0] for a in extras if a.startswith("-")]
            self.error("unrecognized arguments: " + " ".join(options or extras))
        return parsed


def _parse_n(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _weights(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(_decode_number(w, "rational") for w in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated p/q rationals, got {text!r}")


def _family(text: str) -> str:
    """A family name the expression parser reads back inside ``K[...]``."""
    if not _IDENT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an identifier as family name, got {text!r}")
    return text


def _nodes(text: str) -> tuple[tuple[str, ...], ...]:
    if not text:
        raise argparse.ArgumentTypeError("expected semicolon-separated label tuples, got ''")
    return tuple(
        tuple(label.strip() for label in chunk.split(",")) for chunk in text.split(";")
    )


def _num_text(value) -> str:
    return str(value) if isinstance(value, Fraction) else repr(value)


def _family_matrix(args) -> PropagatorMatrix:
    symmetric = args.family in args.sym
    return PropagatorMatrix.family(args.family, args.dim, symmetric=symmetric)


def _parse_exprs(args, dim: int) -> list[Poly]:
    return [parse(text, dim, set(args.sym)) for text in args.exprs]


def _load_grid(path: str) -> KernelGrid:
    with open(path, "r", encoding="utf-8") as handle:
        return KernelGrid.from_json(handle.read())


def _cmd_star(engine, args) -> str:
    factors = _parse_exprs(args, args.dim)
    return str(engine(factors, _family_matrix(args), args.order))


def _cmd_poisson(args) -> str:
    f, g = _parse_exprs(args, args.dim)
    return str(poisson_bracket(f, g, _family_matrix(args)))


def _cmd_wick_power(args) -> str:
    return str(wick_power(args.index, args.power, _family_matrix(args), args.dim))


def _cmd_wick_invert(args) -> str:
    terms = wick_unpower(args.index, args.power, _family_matrix(args), args.dim)
    if args.json:
        return json.dumps(
            [{"degree": deg, "coeff": str(coeff)} for coeff, deg in terms]
        )
    return "\n".join(f"{deg} {coeff}" for coeff, deg in terms)


def _cmd_expect(engine, args) -> str:
    d = len(args.n)
    spec = WickMonomialSpec(
        args.n,
        PropagatorMatrix.family(args.family, d, zero_diagonal=True),
        PropagatorMatrix.family(args.family, d),
    )
    return engine(spec)


def _cmd_enum_adj(args) -> str:
    if (args.deg is None) == (args.n is None):
        raise _UsageError("enum-adj needs exactly one of --deg or --n")
    if args.deg is not None:
        matrices = enumerate_adjacency_by_degree(args.dim, args.deg)
    else:
        matrices = enumerate_adjacency_by_rowsums(args.n)
    rows = [m.tolist() for m in matrices]
    if args.json:
        return json.dumps(rows, separators=(",", ":"))
    return "\n".join(json.dumps(r, separators=(",", ":")) for r in rows)


def _cmd_admissible(args) -> str:
    return "true" if is_admissible(args.n) else "false"


def _cmd_witness(args) -> str:
    matrix = admissible_witness(args.n)
    if args.json:
        return json.dumps(matrix.tolist(), separators=(",", ":"))
    return str(matrix)


def _cmd_ssyt(args) -> str:
    tableau = ssyt_two_row(args.n)
    if args.json:
        return json.dumps(tableau.to_json(), separators=(",", ":"))
    return "\n".join(
        " ".join(str(v) for v in row) for row in (tableau.row1, tableau.row2)
    )


def _cmd_feynman(args) -> str | None:
    try:
        rows = json.loads(args.matrix)
    except (json.JSONDecodeError, RecursionError) as exc:
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
    f, g = _parse_exprs(args, grid.size)
    return _num_text(field_star(f, g, grid, args.order))


def _cmd_field_expect(args) -> str:
    grid = _load_grid(args.grid)
    return _num_text(field_expectation(args.n, grid))


def _cmd_functional_star(args) -> str:
    grid = _load_grid(args.grid)
    f, g = _parse_exprs(args, args.dim)
    if args.nodes is not None:
        weights = args.weights or (Fraction(1),) * len(args.nodes)
        if len(weights) != len(args.nodes):
            raise _UsageError("--weights must list one weight per node")
        rule = QuadratureRule(args.nodes, weights)
    elif args.weights is not None:
        raise _UsageError("--weights requires --nodes")
    else:
        rule = QuadratureRule.all_tuples(grid, args.dim)
    return _num_text(functional_star(f, g, rule, grid, args.order))


# Arguments shared between subcommands, each declared once: name -> (flag, options).
_ARGS = {
    "dim": ("--dim", dict(type=int, required=True, help="number of variables")),
    "order": ("--order", dict(type=_order, help="hbar truncation order")),
    "family": ("--family", dict(type=_family, default="K", help="propagator family name")),
    "sym": ("--sym", dict(type=_family, action="append", default=[], metavar="FAMILY",
                          help="declare a family symmetric (repeatable)")),
    "exprs": ("exprs", dict(nargs="+", help="polynomial expressions")),
    "exprs2": ("exprs", dict(nargs=2, help="two polynomial expressions")),
    "index": ("index", dict(type=int, help="variable index (1-based)")),
    "power": ("power", dict(type=int, help="power")),
    "n": ("--n", dict(type=_parse_n, required=True, help="comma-separated integers")),
    "grid": ("--grid", dict(required=True, metavar="FILE", help="kernel grid JSON file")),
    "json": ("--json", dict(action="store_true", help="print JSON")),
}

# One row per subcommand: name, help, handler, and its arguments, each a
# key of _ARGS or a one-off (flag, options) pair.  A shared handler is given
# its engine through a lambda that reads the module attribute at call time,
# so a wrapper later installed on that attribute (a tracer) sees the call.
_COMMANDS = (
    ("star", "multi-factor star product",
     partial(_cmd_star, lambda *a: star_multi(*a)), ("dim", "order", "family", "sym", "exprs")),
    ("star-graphs", "star product assembled from graphs",
     partial(_cmd_star, lambda *a: star_via_graphs(*a)),
     ("dim", "order", "family", "sym", "exprs")),
    ("poisson", "Poisson bracket of two polynomials", _cmd_poisson,
     ("dim", "family", "sym", "exprs2")),
    ("wick-power", "Wick power of one coordinate", _cmd_wick_power,
     ("dim", "family", "sym", "index", "power")),
    ("wick-invert", "expand a plain power in Wick powers", _cmd_wick_invert,
     ("dim", "family", "sym", "index", "power", "json")),
    ("expect", "combinatorial Wick-monomial expectation",
     partial(_cmd_expect, lambda spec: _Packing.text(*_expectation_terms(spec))), ("n", "family")),
    ("expect-oracle", "brute-force Wick-monomial expectation",
     partial(_cmd_expect, lambda spec: str(expectation_oracle(spec))), ("n", "family")),
    ("enum-adj", "enumerate adjacency matrices", _cmd_enum_adj, (
        ("--dim", dict(type=int, default=2, help="matrix size")),
        ("--deg", dict(type=int, help="total degree")),
        ("--n", dict(type=_parse_n, help="prescribed row sums")),
        "json",
    )),
    ("admissible", "closed-form admissibility test", _cmd_admissible, ("n",)),
    ("witness", "adjacency matrix realizing row sums", _cmd_witness, ("n", "json")),
    ("ssyt", "two-row tableau of an admissible sequence", _cmd_ssyt, ("n", "json")),
    ("feynman", "DOT export of the multigraph of a matrix", _cmd_feynman, (
        ("matrix", dict(help="adjacency matrix as JSON rows")),
        ("--dot", dict(metavar="PATH", help="write DOT here")),
        "json",
    )),
    ("field-star", "star product of densities on a grid", _cmd_field_star,
     ("grid", "order", "sym", "exprs2")),
    ("field-expect", "field expectation on a grid", _cmd_field_expect, ("grid", "n")),
    ("functional-star", "quadrature star product of functionals", _cmd_functional_star, (
        "grid", "dim", "order", "sym",
        ("--nodes", dict(type=_nodes, help="semicolon-separated label tuples")),
        ("--weights", dict(type=_weights, help="comma-separated rationals, one per node")),
        "exprs2",
    )),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="starwick", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, handler, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for argument in arguments:
            flag, options = _ARGS[argument] if isinstance(argument, str) else argument
            sub.add_argument(flag, **options)
        sub.set_defaults(handler=handler)
    return parser


@cache
def _parser() -> _Parser:
    """The parser, built on first use and reused by every later ``main`` call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
