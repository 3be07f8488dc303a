"""Check that the benchmark counts bad operations as failures.

    python3 bench/selfcheck.py

Runs a few pool instances of every workload as they are, then again with
a corrupted reference (a flipped digest, a shifted float), and adds
operations that exit 1, exit 2 and raise inside the program, with
references that match the stdout they print.  Every
corrupted or failing operation must raise the failure count by one, and
no check may raise instead.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

import run
import workloads


def corrupt(instance: dict) -> dict:
    bad = copy.deepcopy(instance)
    ref = bad["ref"]
    if "sha256" in ref:
        ref["sha256"] = ("0" if ref["sha256"][0] != "0" else "1") + ref["sha256"][1:]
    else:
        ref["value"] += 1e-6 * ref["scale"]
    return bad


def main() -> int:
    failures = []
    for workload in workloads.WORKLOADS:
        work = run.OUT / f"selfcheck-{workload}-{os.getpid()}"
        stream, grids = run.setup(workload, 0, str(work))
        cheap = sorted(
            (inst for slot in stream.slots for inst in slot["instances"][:2]),
            key=lambda inst: inst["bytes"],
        )[:4]
        cases = [(inst, False) for inst in cheap] + [(corrupt(inst), True) for inst in cheap]
        grid = next(iter(grids.values()), "missing-grid.json")
        broken = [
            ["star", "--dim", "2", "x1 +"],  # usage error, exit 1
            ["field-star", "--grid", grid + ".absent", "x1", "x2"],  # exit 2
            ["star", "--dim", "1", "1/0"],  # raises ZeroDivisionError
        ]
        for argv in broken:
            # the reference is the stdout they do print, so only the exit
            # code or the exception can make them fail
            output = run.run_op(argv)[1]
            ref = {"sha256": hashlib.sha256(output.encode("utf-8")).hexdigest()}
            cases.append(({"argv": argv, "key": " ".join(argv), "ref": ref}, True))

        ledger = run.Ledger()
        expected = 0
        for instance, bad in cases:
            argv = run.argv_of(instance, grids)
            before = ledger.failed
            ledger.record(instance, argv, *run.run_op(argv))
            expected += bad
            if ledger.failed - before != bad:
                failures.append(f"{workload}: {argv[:3]} counted {'ok' if bad else 'failed'}")
        for path in grids.values():
            run.Path(path).unlink()
        work.rmdir()
        props = ledger.properties()
        print(
            json.dumps(
                {
                    "workload": workload,
                    "attempted": props["operations"],
                    "failed": props["failed"],
                    "expected_failed": expected,
                    "failed_frac": props["failed_frac"],
                }
            )
        )
        if props["failed"] != expected:
            failures.append(f"{workload}: {props['failed']} failed, expected {expected}")
    for line in failures:
        print(f"selfcheck: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
