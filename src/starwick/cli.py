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
    AdjacencyMatrix, admissible_witness, is_admissible, ssyt_two_row, _degree_sums, _matrices,
)
from .exprparse import ParseError, parse, _IDENT_RE
from .fields import KernelGrid, QuadratureRule, _decode_number, field_expectation, field_star
from .fields import functional_star
from .graphs import export_dot, graph_from_matrix, star_via_graphs, to_feynman
from .star import PropagatorMatrix, poisson_bracket, _star_text
from .wick import WickMonomialSpec, expectation_oracle, wick_power, wick_unpower, _expectation_text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        """As argparse's, but a ``--n`` list that starts with a minus sign
        may be its own token, and an unknown option is named alone: argparse
        hands the value after it to the positionals, so the other left-over
        tokens, or a positional's refusal of that value, are not the mistake."""
        # Only a plain negative number is surely a value to argparse: it may
        # read "-1,2" as an option, and then "--n -1,2" lacks its list.
        # Joined as "--n=-1,2", the list reaches its checks on every version.
        args = list(sys.argv[1:] if args is None else args)
        k = 0
        while k < len(args) - 1 and args[k] != "--":
            if args[k] == "--n" and args[k + 1][:1] == "-" and args[k + 1][1:2].isdecimal():
                args[k : k + 2] = ["--n=" + args[k + 1]]
            k += 1
        try:
            parsed, extras = self.parse_known_args(args, namespace)
        except _UsageError:
            # The positionals may refuse the value after an unknown option
            # first.  The command a line names takes --help and its flags in
            # _COMMANDS, each also as a prefix, as argparse reads abbreviations.
            arguments = next((c[3] for c in _COMMANDS if args[:1] == [c[0]]), ())
            flags = ["--help", *((_ARGS[a] if isinstance(a, str) else a)[0] for a in arguments)]
            if not (extras := [a for a in args[1 : (args + ["--"]).index("--")]
                               if arguments and a[:2] == "--"
                               and not any(f.startswith(a.split("=", 1)[0]) for f in flags)]):
                raise
        if extras:
            options = [a.split("=", 1)[0] for a in extras if a.startswith("-")]
            self.error("unrecognized arguments: " + " ".join(options or extras))
        return parsed


def _int(text: str) -> int:
    """``int(text)`` as an option value.  Python will not convert an integer
    longer than its digit limit (4,300 by default), and that is a usage
    error that gives the length, not the digits, as in
    :func:`starwick.exprparse._int`.  Other text raises ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        if not digits.isdecimal():
            raise
        raise argparse.ArgumentTypeError(f"integer of {len(digits)} digits is too long") from None


_int.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"


def _parse_n(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _order(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return _int(text)


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


def _path(text: str) -> str:
    """A file path to write; an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
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
    return PropagatorMatrix.family(args.family, args.dim, symmetric=args.family in args.sym)


def _parse_exprs(args, dim: int) -> list[Poly]:
    return [parse(text, dim, set(args.sym)) for text in args.exprs]


def _load_grid(path: str) -> KernelGrid:
    with open(path, "r", encoding="utf-8") as handle:
        return KernelGrid.from_json(handle.read())


def _cmd_star(engine, args) -> str:
    return engine(_parse_exprs(args, args.dim), _family_matrix(args), args.order)


def _cmd_poisson(args) -> str:
    f, g = _parse_exprs(args, args.dim)
    return str(poisson_bracket(f, g, _family_matrix(args)))


def _cmd_wick_power(args) -> str:
    return str(wick_power(args.index, args.power, PropagatorMatrix.family(args.family, args.dim)))


def _cmd_wick_invert(args) -> str:
    terms = wick_unpower(args.index, args.power, PropagatorMatrix.family(args.family, args.dim))
    if args.json:
        return json.dumps(
            [{"degree": deg, "coeff": str(coeff)} for coeff, deg in terms]
        )
    return "\n".join(f"{deg} {coeff}" for coeff, deg in terms)


def _cmd_expect_oracle(args) -> str:
    d = len(args.n)
    K = PropagatorMatrix.family(args.family, d)
    return str(expectation_oracle(WickMonomialSpec(args.n, PropagatorMatrix.zero(d), K)))


def _cmd_enum_adj(args) -> str:
    if (args.deg is None) == (args.n is None):
        raise _UsageError("enum-adj needs exactly one of --deg or --n")
    if args.deg is not None:
        d = 2 if args.dim is None else args.dim
        n = _degree_sums(d, args.deg)
    elif args.dim is not None:
        raise _UsageError("enum-adj --dim applies only with --deg")
    elif min(args.n) < 0:
        raise ValueError("row sums must be non-negative")
    else:
        n, d = args.n, len(args.n)
    # Compact JSON of one matrix, its d * d cells filled in one step.
    template = "[" + ",".join(["[" + ",".join(["%d"] * d) + "]"] * d) + "]"
    lines = [template % cells for cells in _matrices(n, d)]
    return "[" + ",".join(lines) + "]" if args.json else "\n".join(lines)


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
    if args.dot is not None and args.json:
        raise _UsageError("feynman takes --dot or --json, not both")
    try:
        rows = json.loads(args.matrix)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _UsageError(f"matrix must be JSON rows: {exc}")
    graph = to_feynman(graph_from_matrix(AdjacencyMatrix.from_rows(rows)))
    if args.json:
        return json.dumps(graph.to_json(), separators=(",", ":"))
    dot = export_dot(graph)
    if args.dot is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot)
        return None
    return dot.rstrip("\n")


def _cmd_field_star(args) -> str:
    grid = _load_grid(args.grid)
    f, g = (parse(text, grid.size) for text in args.exprs)
    return _num_text(field_star(f, g, grid, args.order))


def _cmd_field_expect(args) -> str:
    grid = _load_grid(args.grid)
    return _num_text(field_expectation(args.n, grid))


def _cmd_functional_star(args) -> str:
    grid = _load_grid(args.grid)
    f, g = (parse(text, args.dim) for text in args.exprs)
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
    "dim": ("--dim", dict(type=_int, required=True, help="number of variables")),
    "order": ("--order", dict(type=_order, help="hbar truncation order")),
    "family": ("--family", dict(type=_family, default="K", help="propagator family name")),
    "sym": ("--sym", dict(type=_family, action="append", default=[], metavar="FAMILY",
                          help="declare a family symmetric (repeatable)")),
    "exprs": ("exprs", dict(nargs="+", help="polynomial expressions")),
    "exprs2": ("exprs", dict(nargs=2, help="two polynomial expressions")),
    "index": ("index", dict(type=_int, help="variable index (1-based)")),
    "power": ("power", dict(type=_int, help="power")),
    "n": ("--n", dict(type=_parse_n, required=True, help="comma-separated integers")),
    "grid": ("--grid", dict(required=True, metavar="FILE", help="kernel grid JSON file")),
    "json": ("--json", dict(action="store_true", help="print JSON")),
}

# One row per subcommand: name, help, handler, and its arguments, each a
# key of _ARGS or a one-off (flag, options) pair.  A shared handler is given
# its engine, which returns the text to print.  star's engine is
# star._star_text, which carries the product of every factor packed through
# one fold and writes it straight from its packed terms.  star-graphs'
# engine is a lambda so that it reads star_via_graphs at call time:
# bench/layertrace.py traces graphs.star_via_graphs as a layer by rebinding
# that name, which a partial holding the function would not see.  expect
# calls wick._expectation_text, which checks --n as WickMonomialSpec does
# and writes the expectation as its list of Feynman graphs in one walk over
# the row states, whose moves come in canonical order, zero last, so it
# needs no packed term and no sort; the lambda only composes the call, and
# neither is a traced layer.  enum-adj writes the flat cell tuples of
# combinat._matrices, sorted once, each through one %d template per size,
# with no AdjacencyMatrix; so it does not pass through the public
# enumerators, which bench/layertrace.py traces as the combinat layers.
_COMMANDS = (
    ("star", "multi-factor star product",
     partial(_cmd_star, _star_text), ("dim", "order", "family", "sym", "exprs")),
    ("star-graphs", "star product assembled from graphs",
     partial(_cmd_star, lambda *a: str(star_via_graphs(*a))),
     ("dim", "order", "family", "sym", "exprs")),
    ("poisson", "Poisson bracket of two polynomials", _cmd_poisson,
     ("dim", "family", "sym", "exprs2")),
    ("wick-power", "Wick power of one coordinate", _cmd_wick_power,
     ("dim", "family", "index", "power")),
    ("wick-invert", "expand a plain power in Wick powers", _cmd_wick_invert,
     ("dim", "family", "index", "power", "json")),
    ("expect", "combinatorial Wick-monomial expectation",
     lambda args: _expectation_text(args.n, args.family), ("n", "family")),
    ("expect-oracle", "brute-force Wick-monomial expectation", _cmd_expect_oracle,
     ("n", "family")),
    ("enum-adj", "enumerate adjacency matrices", _cmd_enum_adj, (
        ("--dim", dict(type=_int, help="matrix size with --deg (default 2)")),
        ("--deg", dict(type=_int, help="total degree")),
        ("--n", dict(type=_parse_n, help="prescribed row sums")),
        "json",
    )),
    ("admissible", "closed-form admissibility test", _cmd_admissible, ("n",)),
    ("witness", "adjacency matrix realizing row sums", _cmd_witness, ("n", "json")),
    ("ssyt", "two-row tableau of an admissible sequence", _cmd_ssyt, ("n", "json")),
    ("feynman", "DOT export of the multigraph of a matrix", _cmd_feynman, (
        ("matrix", dict(help="adjacency matrix as JSON rows")),
        ("--dot", dict(type=_path, metavar="PATH", help="write DOT here")),
        "json",
    )),
    ("field-star", "star product of densities on a grid", _cmd_field_star,
     ("grid", "order", "exprs2")),
    ("field-expect", "field expectation on a grid", _cmd_field_expect, ("grid", "n")),
    ("functional-star", "quadrature star product of functionals", _cmd_functional_star, (
        "grid", "dim", "order",
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
