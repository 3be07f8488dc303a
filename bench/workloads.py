"""Workload definitions shared by make_pool.py and run.py.

A workload is a list of *slots*.  A slot is one operation shape (a CLI
subcommand with fixed sizes); its instances differ only in random small
integer coefficients, variable order or grid, so every instance of a slot
costs about the same.  A run is a sequence of *rounds*; one round runs
one instance of every slot, in a seeded order.  Whole rounds keep the mix
of a run fixed whatever its length, which is what keeps throughput and
latency percentiles steady from seed to seed.

Instances come from the pool files under ``bench/pool/``, built once by
``make_pool.py`` together with each instance's reference output.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

WORKLOADS = ("symbolic_star", "wick_expect", "field_quadrature")

POOL_SEED = 20191024
INSTANCES_PER_SLOT = 64
WICK_VARIANTS = 6
# Adjacency-matrix count above which a Wick sequence is left out; 1,056
# matrices is about 0.35 s for ``expect`` on CPython 3.11.
WICK_MAX_MATRICES = 1100

_COEFFS = (-3, -2, -1, 1, 2, 3)


def _signed_sum(terms: list[str]) -> str:
    text = " + ".join(terms)
    return text.replace("+ -", "- ")


def _affine(rng: random.Random, dim: int, power: int, constant: bool) -> str:
    terms = [f"{rng.choice(_COEFFS)}*x{i}" for i in range(1, dim + 1)]
    if constant:
        terms.append(str(rng.choice(_COEFFS)))
    return f"({_signed_sum(terms)})^{power}"


def _sparse(rng: random.Random, pattern: tuple[tuple[int, ...], ...]) -> str:
    """Fixed monomial pattern (exponent tuples), random nonzero coefficients."""
    terms = []
    for exps in pattern:
        factors = [
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, start=1) if e
        ]
        terms.append("*".join([str(rng.choice(_COEFFS))] + factors))
    return _signed_sum(terms)


def _factor(rng: random.Random, dim: int, spec) -> str:
    style, arg = spec
    if style == "aff":
        return _affine(rng, dim, arg, constant=True)
    if style == "hom":
        return _affine(rng, dim, arg, constant=False)
    return _sparse(rng, arg)


# (name, subcommand, dim, extra flags, factor specs).  Sizes keep each
# operation under about 2 s on CPython 3.11; three dense cubic factors at
# --dim 3 (about 16 s) are the cliff kept out of the mix.
SYMBOLIC_SLOTS = (
    ("star_d2_aff33", "star", 2, (), (("aff", 3), ("aff", 3))),
    ("star_d2_aff43", "star", 2, (), (("aff", 4), ("aff", 3))),
    ("star_d2_aff44", "star", 2, (), (("aff", 4), ("aff", 4))),
    ("star_d2_hom332", "star", 2, (), (("hom", 3), ("hom", 3), ("hom", 2))),
    ("graphs_d2_hom322", "star-graphs", 2, (), (("hom", 3), ("hom", 2), ("hom", 2))),
    (
        "star_d2_sparse3",
        "star",
        2,
        (),
        (
            ("sparse", ((4, 0), (1, 2), (0, 1))),
            ("sparse", ((3, 1), (0, 3), (1, 0))),
            ("sparse", ((2, 1), (0, 2), (1, 0))),
        ),
    ),
    ("star_d3_hom33", "star", 3, (), (("hom", 3), ("hom", 3))),
    ("star_d3_aff33", "star", 3, (), (("aff", 3), ("aff", 3))),
    ("star_d3_sym_aff33", "star", 3, ("--sym", "K"), (("aff", 3), ("aff", 3))),
    ("graphs_d3_hom33", "star-graphs", 3, (), (("hom", 3), ("hom", 3))),
    ("star_d3_hom222", "star", 3, (), (("hom", 2), ("hom", 2), ("hom", 2))),
    ("star_d3_hom44_o2", "star", 3, ("--order", "2"), (("hom", 4), ("hom", 4))),
    ("star_d4_aff22", "star", 4, (), (("aff", 2), ("aff", 2))),
    ("star_d4_hom32", "star", 4, (), (("hom", 3), ("hom", 2))),
    ("graphs_d4_aff22", "star-graphs", 4, (), (("aff", 2), ("aff", 2))),
    (
        "star_d4_sparse3",
        "star",
        4,
        (),
        (
            ("sparse", ((1, 1, 1, 0), (0, 2, 0, 1), (1, 0, 0, 2))),
            ("sparse", ((2, 0, 1, 0), (0, 1, 0, 1))),
            ("sparse", ((1, 0, 1, 0), (0, 0, 0, 1))),
        ),
    ),
)


def symbolic_instance(slot, rng: random.Random) -> list[str]:
    _, cmd, dim, flags, factors = slot
    return [cmd, "--dim", str(dim), *flags] + [_factor(rng, dim, f) for f in factors]


def wick_multisets() -> list[tuple[int, ...]]:
    """Admissible sequences of 5-8 entries in 1..3 under the matrix cap,
    ascending by matrix count."""
    out = []
    for length in range(5, 9):
        for ms in itertools.combinations_with_replacement((1, 2, 3), length):
            total = sum(ms)
            if total % 2 or 2 * max(ms) > total:
                continue
            count = count_by_rowsums(ms)
            if count <= WICK_MAX_MATRICES:
                out.append((count, ms))
    return [ms for _, ms in sorted(out)]


def count_by_rowsums(n: tuple[int, ...]) -> int:
    """Number of symmetric zero-diagonal non-negative matrices with row sums n."""
    d = len(n)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]

    @lru_cache(maxsize=None)
    def count(idx: int, rem: tuple[int, ...]) -> int:
        if idx == len(pairs):
            return 1 if not any(rem) else 0
        i, j = pairs[idx]
        total = 0
        for v in range(min(rem[i], rem[j]) + 1):
            nxt = list(rem)
            nxt[i] -= v
            nxt[j] -= v
            # once the last pair of row i is assigned its sum must be met
            if j == d - 1 and nxt[i]:
                continue
            total += count(idx + 1, tuple(nxt))
        return total

    return count(0, tuple(n))


def wick_slots() -> list[tuple[str, str, tuple[int, ...]]]:
    """``expect`` for every sequence, ``enum-adj`` for every third one,
    so about a quarter of the operations enumerate."""
    slots = []
    for k, ms in enumerate(wick_multisets()):
        tag = "".join(map(str, ms))
        slots.append((f"expect_{tag}", "expect", ms))
        if k % 3 == 1:
            slots.append((f"enum_{tag}", "enum-adj", ms))
    return slots


def wick_variants(ms: tuple[int, ...], rng: random.Random) -> list[tuple[int, ...]]:
    """Up to ``WICK_VARIANTS`` distinct orderings of one sequence."""
    distinct = sorted(set(itertools.permutations(ms)))
    rng.shuffle(distinct)
    return distinct[:WICK_VARIANTS]


def wick_argv(cmd: str, seq: tuple[int, ...]) -> list[str]:
    return [cmd, "--n", ",".join(map(str, seq))]


# Grids: two float grids of 10 points and two rational grids of 6 points.
GRIDS = (("f0", "float", 10), ("f1", "float", 10), ("r0", "rational", 6), ("r1", "rational", 6))


def make_grid(rng: random.Random, mode: str, size: int) -> dict:
    points = [f"p{i}" for i in range(size)]
    if mode == "float":
        value = lambda: round(rng.uniform(-1.0, 1.0), 6)  # noqa: E731
        hbar = 0.5
    else:
        value = lambda: f"{rng.randint(-3, 3)}/{rng.randint(1, 4)}"  # noqa: E731
        hbar = "1/2"
    kernel = [[value() for _ in range(size)] for _ in range(size)]
    return {
        "points": points,
        "kernel": kernel,
        "field": [value() for _ in range(size)],
        "hbar": hbar,
        "mode": mode,
    }


_FS_A = (((1, 1), (2, 0)), ((0, 2), (1, 0)))
_FS_B = (((3, 0), (1, 1), (0, 0)), ((0, 2), (1, 0)))
_FS_C = (((1, 2), (1, 0)), ((2, 1), (0, 1), (0, 0)))
_STAR10 = (
    ((1, 1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 2, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
)
_STAR6 = (
    ((1, 1, 1, 0, 0, 0), (0, 0, 0, 2, 0, 0), (0, 1, 0, 0, 0, 0)),
    ((0, 0, 1, 0, 0, 1), (2, 0, 0, 0, 1, 0)),
)

# (name, subcommand, grid mode, densities or --n sequence).  Every
# functional-star density has two variables and degree at most 3; the
# float grids give 10^4 node pairs, the rational ones 1,296.
FIELD_SLOTS = (
    ("fstar_float_a", "functional-star", "float", _FS_A),
    ("fstar_float_b_o1", "functional-star", "float", _FS_B),
    ("fstar_rat_a", "functional-star", "rational", _FS_A),
    ("fstar_rat_b", "functional-star", "rational", _FS_B),
    ("fstar_rat_c", "functional-star", "rational", _FS_C),
    ("fieldstar_float", "field-star", "float", _STAR10),
    ("fieldstar_rat", "field-star", "rational", _STAR6),
    ("fexpect_float", "field-expect", "float", (2, 2, 1, 1, 2, 2)),
    ("fexpect_rat", "field-expect", "rational", (2, 1, 2, 1, 2)),
)


def field_instance(slot, rng: random.Random) -> tuple[str, list[str]]:
    """Return the grid id and argv; ``{grid}`` stands for the grid path."""
    name, cmd, mode, shape = slot
    grid = rng.choice([gid for gid, gmode, _ in GRIDS if gmode == mode])
    if cmd == "field-expect":
        seq = list(shape)
        rng.shuffle(seq)
        return grid, [cmd, "--grid", "{grid}", "--n", ",".join(map(str, seq))]
    densities = [_sparse(rng, pattern) for pattern in shape]
    if cmd == "functional-star":
        order = ["--order", "1"] if name.endswith("_o1") else []
        return grid, [cmd, "--grid", "{grid}", "--dim", "2", *order, *densities]
    return grid, [cmd, "--grid", "{grid}", *densities]


class Stream:
    """Seeded rounds over a pool: one instance of every slot per round.

    In a ``fresh`` pool each slot hands out its instances in a seeded
    order, repeating none until the slot is used up; otherwise slots draw
    with replacement, so inputs recur.
    """

    def __init__(self, pool: dict, seed: int) -> None:
        self.rng = random.Random(seed)
        self.slots = pool["slots"]
        self.fresh = pool["fresh"]
        self.order = [self._shuffled(len(s["instances"])) for s in self.slots]
        self.next = [0] * len(self.slots)

    def _shuffled(self, n: int) -> list[int]:
        idx = list(range(n))
        self.rng.shuffle(idx)
        return idx

    def round(self) -> list[dict]:
        picks = []
        for s, slot in enumerate(self.slots):
            instances = slot["instances"]
            if not self.fresh:
                picks.append(instances[self.rng.randrange(len(instances))])
                continue
            if self.next[s] == len(instances):
                self.order[s] = self._shuffled(len(instances))
                self.next[s] = 0
            picks.append(instances[self.order[s][self.next[s]]])
            self.next[s] += 1
        self.rng.shuffle(picks)
        return picks
