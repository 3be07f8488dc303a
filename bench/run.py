"""starwick benchmark: seeded closed-loop streams of CLI operations.

Usage, from the repository root:

    python3 bench/run.py --workload symbolic_star --seed 1 --seconds 30 --trace 0

Every operation is one in-process call of ``starwick.cli.main(argv)``
with stdout captured, so parsing, computing and canonical rendering all
count.  One client sends the next operation only after the previous one
returned.  Operations run in whole rounds (see ``workloads.py``) until
``--seconds`` have passed and, untraced, at least 100 operations ran.
After every round, set-up is timed cold in a fresh interpreter
(``coldsetup.py``); ``setup_s`` is the median.  Every time is reported
at the reference speed of ``speed.py``.  Each output is checked against
the reference recorded in the pool file; a nonzero exit code, an
exception or a mismatch counts as a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` rounds alternate between untraced and traced, and it
reports the per-layer metrics of the traced rounds plus the tracing
overhead.  A summary with the failure fraction and sample count goes to
stderr, and a detail file to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "_out"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from coldsetup import setup  # noqa: E402
from layertrace import Tracer  # noqa: E402
from speed import PROBE_REF_S, speed_probe  # noqa: E402

# Set-up is timed in a fresh interpreter this many times after every
# round, so its median spans the run.  One sample varies by about 15%.
SETUP_SAMPLES_PER_ROUND = 3
# At least this many operations in an untraced run, so that p90 has 10
# beyond it.  A traced run reports no percentile and keeps to --seconds.
MIN_OPERATIONS = 100
# Relative tolerance for float outputs, scaled by the sum of the absolute
# values of the summands, so that a reordered float sum still matches.
FLOAT_RTOL = 1e-9


def cold_setup_seconds(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Time one cold set-up in a child interpreter (see ``coldsetup.py``);
    returns its seconds and the child's mean probe time just after it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "coldsetup.py"), workload, str(seed), str(work)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    setup_s, probe_s = map(float, proc.stdout.split())
    return setup_s, probe_s


def run_op(argv: list[str]) -> tuple[int | str, str, float]:
    """One closed-loop operation; never raises."""
    main = sys.modules["starwick.cli"].main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a traceback is a failed operation
        code = f"raised {type(exc).__name__}"
    except SystemExit as exc:
        code = f"exit {exc.code}"
    return code, out.getvalue(), time.perf_counter() - start


def check(instance: dict, code, output: str) -> bool:
    """Exit code 0 and the recorded reference: digest or float value."""
    if code != 0:
        return False
    ref = instance["ref"]
    if "sha256" in ref:
        return hashlib.sha256(output.encode("utf-8")).hexdigest() == ref["sha256"]
    try:
        value = float(output)
    except ValueError:
        return False
    return abs(value - ref["value"]) <= FLOAT_RTOL * ref["scale"]


def argv_of(instance: dict, grids: dict[str, str]) -> list[str]:
    if "grid" not in instance:
        return instance["argv"]
    return [a.replace("{grid}", grids[instance["grid"]]) for a in instance["argv"]]


class Ledger:
    """Outcomes of the operations run, with the input-reuse properties."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.output_bytes: list[int] = []
        self.seen_keys: set[str] = set()
        self.seen_argv: set[tuple[str, ...]] = set()
        self.repeats = 0
        self.exact_repeats = 0

    def record(self, instance: dict, argv: list[str], code, output: str, seconds: float) -> None:
        self.latencies.append(seconds)
        self.output_bytes.append(len(output.encode("utf-8")))
        if not check(instance, code, output):
            self.failed += 1
        key, exact = instance["key"], tuple(argv)
        self.repeats += key in self.seen_keys
        self.exact_repeats += exact in self.seen_argv
        self.seen_keys.add(key)
        self.seen_argv.add(exact)

    def properties(self) -> dict:
        n = len(self.latencies)
        sizes = sorted(self.output_bytes)
        return {
            "operations": n,
            "failed": self.failed,
            "failed_frac": self.failed / n if n else 0.0,
            "repeat_share": self.repeats / n if n else 0.0,
            "exact_repeat_share": self.exact_repeats / n if n else 0.0,
            "output_bytes": {
                "min": sizes[0] if sizes else 0,
                "p50": statistics.median(sizes) if sizes else 0,
                "p90": _percentile(sizes, 0.9),
                "max": sizes[-1] if sizes else 0,
            },
        }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def run_rounds(stream, grids, seconds: float, ledger: Ledger, tracer: Tracer | None, after_round):
    """Run whole rounds until ``seconds`` pass (and, untraced, ``ledger``
    holds MIN_OPERATIONS), calling ``after_round`` after each and the speed
    probe after each operation.  With a tracer, rounds alternate
    untraced/traced and the traced ones go to a second ledger.  Returns
    that ledger, the busy seconds of both kinds of round, the number of
    rounds and the probe times."""
    traced = None
    if tracer is not None:
        traced = Ledger()
        # one input history, so repeats count across traced and untraced rounds
        traced.seen_keys, traced.seen_argv = ledger.seen_keys, ledger.seen_argv
    busy = [0.0, 0.0]
    probes: list[float] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while (
        time.perf_counter() < deadline
        or (tracer is None and len(ledger.latencies) < MIN_OPERATIONS)
        or (tracer is not None and rounds < 2)
    ):
        on = tracer is not None and rounds % 2 == 1
        if on:
            tracer.install()
        book = traced if on else ledger
        for instance in stream.round():
            argv = argv_of(instance, grids)
            code, output, dt = run_op(argv)
            busy[on] += dt
            book.record(instance, argv, code, output, dt)
            probes.append(speed_probe())
        if on:
            tracer.uninstall()
        rounds += 1
        after_round()
    return traced, busy, rounds, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stream, grids = setup(args.workload, args.seed, str(work))
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_times: list[tuple[float, float]] = []

    def sample_setup() -> None:
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            setup_times.append(cold_setup_seconds(args.workload, args.seed, work))

    try:
        run_op(["star", "--dim", "2", "x1", "x2"])  # warm-up outside the pool
        ledger = Ledger()
        tracer = Tracer() if args.trace else None
        traced, busy, rounds, probes = run_rounds(
            stream, grids, args.seconds, ledger, tracer, sample_setup
        )
    finally:
        for path in grids.values():
            Path(path).unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            work.rmdir()

    props = ledger.properties()
    lat = ledger.latencies
    ledgers = [ledger] if traced is None else [ledger, traced]
    attempted = sum(len(book.latencies) for book in ledgers)
    failed = sum(book.failed for book in ledgers)
    repeat_share = sum(book.repeats for book in ledgers) / attempted
    wall = {
        "ops_per_s": len(lat) / busy[0],
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": _percentile(lat, 0.9),
        "setup_s": statistics.median(t for t, _ in setup_times),
    }
    # wall seconds to seconds at the reference speed
    scale = PROBE_REF_S / statistics.fmean(probes)
    untraced_rate = wall["ops_per_s"] / scale
    if tracer is None:
        metrics = {
            "ops_per_s": (untraced_rate, "1/s"),
            "latency_p50_s": (wall["latency_p50_s"] * scale, "s"),
            "latency_p90_s": (wall["latency_p90_s"] * scale, "s"),
            # each sample scaled by the probe its own child ran
            "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_rate = len(traced.latencies) / (busy[1] * scale)
        metrics = tracer.metrics(len(traced.latencies), scale)
        metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "fraction")
        metrics["workload.operations"] = (float(attempted), "count")
        metrics["workload.repeat_share"] = (repeat_share, "fraction")
        metrics["workload.output_bytes_p50"] = (float(props["output_bytes"]["p50"]), "bytes")
        metrics["workload.output_bytes_max"] = (float(props["output_bytes"]["max"]), "bytes")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.json")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "slots": len(stream.slots),
        "setup_s_samples": [t for t, _ in setup_times],
        "setup_probe_s": [p for _, p in setup_times],
        "probe_mean_s": statistics.fmean(probes),
        "speed_scale": scale,
        "wall": wall,
        "untraced": props,
        "traced": traced.properties() if traced else None,
        "repeat_share": repeat_share,
        "spans_kept": len(tracer.span_name) if tracer else 0,
        "spans_dropped": tracer.spans_dropped if tracer else 0,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(
        f"bench: {args.workload} seed={args.seed} rounds={rounds} attempted={attempted} "
        f"failed={failed} failed_frac={failed / attempted:.4f} latency_samples={len(lat)} "
        f"repeat_share={repeat_share:.3f} speed_scale={scale:.4f} "
        f"wall_ops_per_s={wall['ops_per_s']:.6g}/s "
        + " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items() if not k.endswith(".calls")),
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
