"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/prove.py --out bench/baseline.json

Runs ``run.py`` once per seed and workload, one run at a time, with the
run length of ``BENCHMARK.json``: untraced on seeds 1 to 10 and traced on
seeds 1 to 3.  It reports for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
spread above a third of the metric's bound in ``BENCHMARK.json`` is
flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
TRACE_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "_out" / f"last-{workload}-trace{trace}.json").read_text())
    return result, detail


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
        "method": (
            "In-process timers only (time.perf_counter, resource.getrusage); "
            "set-up timed by each child interpreter's own clock; times scaled to "
            "the reference speed of the probe in speed.py. No system-wide tracing, "
            "no profiler, no machine settings changed. Runs made one at a time."
        ),
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {}
        props = []
        failed = 0
        for seed in report["seeds"]:
            result, detail = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            props.append(
                {
                    "seed": seed,
                    "operations": result["attempted"],
                    "rounds": detail["rounds"],
                    "repeat_share": detail["repeat_share"],
                    "exact_repeat_share": detail["untraced"]["exact_repeat_share"],
                    "output_bytes": detail["untraced"]["output_bytes"],
                }
            )
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr)
        end_to_end = {name: summarize(v) for name, v in values.items()}
        for name, summary in end_to_end.items():
            limit = bounds[name] / 3
            summary["within_third_of_bound"] = summary["spread"] < limit
            steady = steady and summary["within_third_of_bound"]
            print(f"{workload} {name}: median {summary['median']:.6g} spread "
                  f"{summary['spread']:.4f} (bound/3 {limit:.4f})", file=sys.stderr)
        entry = {"failed": failed, "end_to_end": end_to_end, "runs": props}
        layer: dict[str, list[float]] = {}
        for seed in report["seeds"][:TRACE_RUNS]:
            result, _ = run_once(workload, seed, seconds, 1)
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                layer.setdefault(name, []).append(metric["value"])
        entry["per_layer_median"] = {name: statistics.median(v) for name, v in layer.items()}
        entry["failed"] = failed
        report["workloads"][workload] = entry
    report["steady"] = steady
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
