"""The benchmark's set-up, and a cold timing of it in a fresh interpreter.

    python3 bench/coldsetup.py <workload> <seed> <work dir>

Set-up imports starwick from the ``src`` next to ``bench``, loads the
workload's pool, seeds the stream and writes the grid files.  Run as a
script, this module times one set-up and prints the seconds, then the
mean time of a few runs of the speed probe (``speed.py``) just after.
The clock starts before starwick, or any module it needs, is imported,
so the import is as cold as a user's first command: only the
interpreter's own start-up precedes it.  This module therefore imports
nothing at the top beyond ``importlib``, ``os``, ``sys`` and ``time``.
"""

import importlib
import os
import sys
import time

BENCH = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_starwick():
    """Import ``starwick.cli`` from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("starwick.cli")
    origin = os.path.realpath(sys.modules["starwick"].__file__)
    if os.path.dirname(os.path.dirname(origin)) != SRC:
        raise ImportError(f"starwick imported from {origin}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, work: str):
    """Import starwick, load the pool, seed the stream, write the grids.

    Returns the stream and the grid paths by grid id."""
    import_starwick()
    import json

    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads

    with open(os.path.join(BENCH, "pool", f"{workload}.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    stream = workloads.Stream(pool, seed)
    os.makedirs(work, exist_ok=True)
    paths = {}
    for gid, grid in pool.get("grids", {}).items():
        path = os.path.join(work, f"grid_{gid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(grid, handle)
        paths[gid] = path
    return stream, paths


PROBES = 10

if __name__ == "__main__":
    start = time.perf_counter()
    setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    elapsed = time.perf_counter() - start
    from speed import speed_probe

    probe = sum(speed_probe() for _ in range(PROBES)) / PROBES
    print(repr(elapsed), repr(probe))
