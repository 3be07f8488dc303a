"""Build a workload's pool of operations and their reference outputs.

    python3 bench/make_pool.py --workload symbolic_star

Instances are generated from the fixed ``workloads.POOL_SEED``.  Each one
is run through ``starwick.cli.main`` and its output is accepted as the
reference only after a second, independent route agrees:

* ``star``: a left fold of ``star2`` through the Python API;
* ``star-graphs``: equal to ``star`` and to the fold;
* ``expect``: the coefficient of ``prod t_i^n_i`` in
  ``prod_{i<j} exp(K_ij t_i t_j)``, expanded here without starwick, and
  also ``expectation_oracle / prod(n_i!)`` when the total is at most 10;
* ``enum-adj --n``: every matrix is checked for symmetry, zero diagonal
  and row sums, the list for order and distinctness, and the count
  against an independent count;
* ``field-star``, ``field-expect``, ``functional-star``: sympy
  substitution of the grid values into the symbolic product.

Exact outputs are stored as the SHA-256 of their text.  Float outputs are
stored as a value plus the sum of the absolute values of the summands,
the scale of the relative tolerance in ``run.py``.

The references were recorded on the seed commit of the benchmark.
Rebuilding them on a later commit would hide a change of answers; do it
only when the benchmark itself changes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction

import coldsetup
import run
import workloads as W

RAT = re.compile(r"\d+(/\d+)?")


def read_terms(text: str) -> dict[tuple, Fraction]:
    """Canonical starwick text -> {sorted (factor, exponent) tuple: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    out: dict[tuple, Fraction] = {}
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        negative = sign == "-"
        if body.startswith("-"):
            negative, body = not negative, body[1:]
        coeff = Fraction(1)
        factors: dict[str, int] = {}
        for piece in body.split("*"):
            if RAT.fullmatch(piece):
                coeff = Fraction(piece)
                continue
            name, _, exp = piece.partition("^")
            factors[name] = factors.get(name, 0) + int(exp or 1)
        key = tuple(sorted(factors.items()))
        out[key] = out.get(key, 0) + (-coeff if negative else coeff)
    return {k: v for k, v in out.items() if v}


def expectation_terms(n: tuple[int, ...]) -> dict[tuple, Fraction]:
    """Coefficient of prod t_i^n_i in prod_{i<j} exp(K_ij t_i t_j)."""
    d = len(n)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    out: dict[tuple, Fraction] = {}

    def walk(idx: int, rem: list[int], mono: list, weight: Fraction) -> None:
        if idx == len(pairs):
            if not any(rem):
                key = tuple(sorted(mono))
                out[key] = out.get(key, 0) + weight
            return
        i, j = pairs[idx]
        for m in range(min(rem[i], rem[j]) + 1):
            rem[i] -= m
            rem[j] -= m
            factor = [(f"K[K;{i + 1},{j + 1}]", m)] if m else []
            walk(idx + 1, rem, mono + factor, weight / math.factorial(m))
            rem[i] += m
            rem[j] += m

    walk(0, list(n), [], Fraction(1))
    return out


def _sympy_name(name: str) -> str:
    sym = re.fullmatch(r"K\[K;(\d+),(\d+)\]", name)
    if sym:
        return f"K_{sym.group(1)}_{sym.group(2)}"
    var = re.fullmatch(r"x(\d+)@1", name)
    return f"y{var.group(1)}" if var else name


def to_sympy(terms: dict[tuple, Fraction]):
    import sympy

    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[sympy.Symbol(_sympy_name(f)) ** e for f, e in key])
            for key, c in terms.items()
        ]
    )


def grid_values(grid: dict) -> tuple[list[list[Fraction]], list[Fraction], Fraction]:
    """Exact rationals of the grid data (floats are converted exactly)."""
    kernel = [[Fraction(v) for v in row] for row in grid["kernel"]]
    return kernel, [Fraction(v) for v in grid["field"]], Fraction(grid["hbar"])


def substitute(terms: dict[tuple, Fraction], grid: dict) -> tuple[Fraction, Fraction]:
    """Exact value and absolute scale of a single-block expression on a grid."""
    import sympy

    kernel, field, hbar = grid_values(grid)
    expr = to_sympy(terms)
    values = {}
    for sym in expr.free_symbols:
        name = sym.name
        if name == "hbar":
            values[sym] = hbar
        elif name.startswith("K_"):
            _, i, j = name.split("_")
            values[sym] = kernel[int(i) - 1][int(j) - 1]
        else:
            values[sym] = field[int(name[1:]) - 1]
    as_rational = {s: sympy.Rational(v.numerator, v.denominator) for s, v in values.items()}
    exact = expr.subs(as_rational)
    absolute = to_sympy({k: abs(c) for k, c in terms.items()}).subs(
        {s: abs(v) for s, v in as_rational.items()}
    )
    return Fraction(str(exact)), Fraction(str(absolute))


def functional_value(terms: dict[tuple, Fraction], grid: dict) -> tuple[object, float]:
    """Quadrature over every pair of 2-tuples of points, by lambdified sympy.

    Rational grids are summed exactly; float grids in floats with fsum.
    """
    import sympy

    expr = to_sympy(terms)
    denom = math.lcm(*[c.denominator for c in terms.values()]) if terms else 1
    names = sorted(s.name for s in expr.free_symbols)
    symbols = [sympy.Symbol(n) for n in names]
    scaled = sympy.lambdify(symbols, sympy.expand(expr * denom), "math")
    absolute = sympy.lambdify(
        symbols, sympy.expand(to_sympy({k: abs(c) for k, c in terms.items()}) * denom), "math"
    )
    exact = grid["mode"] == "rational"
    kernel, field, hbar = grid_values(grid)
    if not exact:
        kernel = [[float(v) for v in row] for row in kernel]
        field = [float(v) for v in field]
        hbar = float(hbar)
    nodes = list(itertools.product(range(len(field)), repeat=2))
    total, scale = [], []
    for s in nodes:
        for t in nodes:
            args = []
            for name in names:
                if name == "hbar":
                    args.append(hbar)
                elif name.startswith("K_"):
                    _, i, j = name.split("_")
                    args.append(kernel[s[int(i) - 1]][t[int(j) - 1]])
                elif name.startswith("y"):
                    args.append(field[t[int(name[1:]) - 1]])
                else:
                    args.append(field[s[int(name[1:]) - 1]])
            total.append(scaled(*args))
            scale.append(absolute(*[abs(a) for a in args]))
    if exact:
        return Fraction(sum(total, Fraction(0))) / denom, float(sum(scale, Fraction(0)) / denom)
    return math.fsum(total) / denom, math.fsum(scale) / denom


class Mismatch(Exception):
    pass


def cli(argv: list[str]) -> str:
    code, output, _ = run.run_op(argv)
    if code != 0:
        raise Mismatch(f"exit {code} for {argv}")
    return output


def exact_ref(output: str) -> dict:
    return {"sha256": hashlib.sha256(output.encode("utf-8")).hexdigest()}


def number_ref(output: str, exact: Fraction, scale: Fraction, mode: str, argv) -> dict:
    if mode == "rational":
        if Fraction(output.strip()) != exact:
            raise Mismatch(f"{argv}: {output.strip()} != {exact}")
        return exact_ref(output)
    value = float(output)
    scale = float(scale)
    if abs(value - float(exact)) > run.FLOAT_RTOL * scale:
        raise Mismatch(f"{argv}: {value} vs {float(exact)} (scale {scale})")
    return {"value": value, "scale": scale}


def seeded(name: str) -> random.Random:
    """One generator per slot, so adding or dropping a slot leaves the
    instances of the others unchanged."""
    return random.Random(f"{W.POOL_SEED}:{name}")


def symbolic_pool() -> dict:
    from starwick import PropagatorMatrix, parse, star2

    slots = []
    for slot in W.SYMBOLIC_SLOTS:
        name, cmd, dim, flags, factors = slot
        order = int(flags[1]) if flags[:1] == ("--order",) else None
        sym = {"K"} if flags[:1] == ("--sym",) else set()
        K = PropagatorMatrix.family("K", dim, symmetric=bool(sym))
        rng = seeded(name)
        instances, seen = [], set()
        while len(instances) < W.INSTANCES_PER_SLOT:
            argv = W.symbolic_instance(slot, rng)
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            output = cli(argv)
            exprs = argv[3 + len(flags):]
            polys = [parse(e, dim, sym) for e in exprs]
            fold = polys[0]
            for p in polys[1:]:
                fold = star2(fold, p, K, order)
            if order is not None:
                fold = fold.truncate_hbar(order)
            if output != f"{fold}\n":
                raise Mismatch(f"{argv}: CLI differs from the star2 fold")
            if cmd == "star-graphs" and cli(["star", *argv[1:]]) != output:
                raise Mismatch(f"{argv}: star-graphs differs from star")
            instances.append(
                _entry(argv, " ".join(argv), exact_ref(output), output, len(read_terms(output)))
            )
        slots.append({"name": name, "instances": instances})
        print(f"{name}: {len(instances)}", file=sys.stderr)
    return {"fresh": True, "slots": slots}


def _entry(argv, key, ref, output, terms, grid=None) -> dict:
    """One pool instance; ``terms`` counts output terms, matrices or values."""
    entry = {"argv": argv, "key": key, "ref": ref, "bytes": len(output.encode("utf-8"))}
    entry["terms"] = terms
    if grid is not None:
        entry["grid"] = grid
    return entry


def check_enum(output: str, n: tuple[int, ...]) -> None:
    rows = [json.loads(line) for line in output.splitlines() if line]
    d = len(n)
    uppers = []
    for m in rows:
        ok = len(m) == d and all(len(r) == d for r in m)
        ok = ok and all(m[i][i] == 0 for i in range(d))
        ok = ok and all(m[i][j] == m[j][i] >= 0 for i in range(d) for j in range(d))
        ok = ok and [sum(r) for r in m] == list(n)
        if not ok:
            raise Mismatch(f"enum-adj {n}: bad matrix {m}")
        uppers.append([m[i][j] for i in range(d) for j in range(i + 1, d)])
    if len(set(map(tuple, uppers))) != len(uppers) or uppers != sorted(uppers):
        raise Mismatch(f"enum-adj {n}: matrices not distinct and ascending")
    if len(rows) != W.count_by_rowsums(n):
        raise Mismatch(f"enum-adj {n}: {len(rows)} matrices, expected {W.count_by_rowsums(n)}")


def wick_pool() -> dict:
    from starwick import PropagatorMatrix, WickMonomialSpec, expectation_oracle

    slots = []
    variants = {ms: W.wick_variants(ms, seeded(str(ms))) for ms in W.wick_multisets()}
    for name, cmd, ms in W.wick_slots():
        instances = []
        for seq in variants[ms]:
            argv = W.wick_argv(cmd, seq)
            output = cli(argv)
            if cmd == "enum-adj":
                check_enum(output, seq)
            else:
                if read_terms(output) != expectation_terms(seq):
                    raise Mismatch(f"{argv}: differs from the generating-function route")
                if sum(seq) <= 10:
                    d = len(seq)
                    spec = WickMonomialSpec(
                        seq,
                        PropagatorMatrix.family("K", d, zero_diagonal=True),
                        PropagatorMatrix.family("K", d),
                    )
                    scale = math.prod(math.factorial(v) for v in seq)
                    if f"{expectation_oracle(spec) * Fraction(1, scale)}\n" != output:
                        raise Mismatch(f"{argv}: differs from expectation_oracle")
            key = f"{cmd} {','.join(map(str, sorted(seq)))}"
            terms = len(output.splitlines()) if cmd == "enum-adj" else len(read_terms(output))
            instances.append(_entry(argv, key, exact_ref(output), output, terms))
        slots.append({"name": name, "instances": instances})
        print(f"{name}: {len(instances)}", file=sys.stderr)
    return {"fresh": False, "slots": slots}


def field_pool() -> dict:
    from starwick import PropagatorMatrix, parse, star2, star_tensor

    grids = {gid: W.make_grid(seeded(gid), mode, size) for gid, mode, size in W.GRIDS}
    paths = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for gid, grid in grids.items():
        path = run.OUT / f"pool_grid_{gid}.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        paths[gid] = str(path)
    slots = []
    for slot in W.FIELD_SLOTS:
        name, cmd, mode, _ = slot
        rng = seeded(name)
        instances, seen, misses = [], set(), 0
        # field-expect has fewer distinct inputs than the target count
        while len(instances) < W.INSTANCES_PER_SLOT and misses < 1000:
            gid, argv = W.field_instance(slot, rng)
            key = f"{gid} {' '.join(argv)}"
            if key in seen:
                misses += 1
                continue
            seen.add(key)
            grid = grids[gid]
            output = cli([a.replace("{grid}", paths[gid]) for a in argv])
            if cmd == "field-expect":
                seq = tuple(int(v) for v in argv[-1].split(","))
                exact, scale = substitute(expectation_terms(seq), grid)
            elif cmd == "field-star":
                dim = len(grid["points"])
                f, g = (parse(e, dim) for e in argv[-2:])
                product = star2(f, g, PropagatorMatrix.family("K", dim))
                exact, scale = substitute(read_terms(str(product)), grid)
            else:
                order = int(argv[argv.index("--order") + 1]) if "--order" in argv else None
                f, g = (parse(e, 2) for e in argv[-2:])
                product = star_tensor(f, g.relabel_blocks({0: 1}), PropagatorMatrix.family("K", 2), order)
                exact, scale = functional_value(read_terms(str(product)), grid)
            ref = number_ref(output, exact, scale, mode, argv)
            instances.append(_entry(argv, key, ref, output, 1, grid=gid))
        slots.append({"name": name, "instances": instances})
        print(f"{name}: {len(instances)}", file=sys.stderr)
    for path in paths.values():
        run.Path(path).unlink()
    return {"fresh": True, "slots": slots, "grids": grids}


def main() -> int:
    parser = argparse.ArgumentParser(description="build one workload's pool")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    args = parser.parse_args()
    coldsetup.import_starwick()
    build = {"symbolic_star": symbolic_pool, "wick_expect": wick_pool, "field_quadrature": field_pool}
    pool = {"workload": args.workload, "pool_seed": W.POOL_SEED, **build[args.workload]()}
    out = run.BENCH / "pool" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(pool, separators=(",", ":")), encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
