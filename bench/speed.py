"""Reference-speed scaling of the benchmark's times.

The host's speed drifts by up to 2x within seconds, as other tenants
share its cores and caches, so a run's wall times say as much about the
host as about starwick.  A fixed job (``speed_probe``) runs right after
every timed piece of work, and every reported time is scaled to the speed
at which that job takes ``PROBE_REF_S``: multiplied by ``PROBE_REF_S``
over the mean probe time.  Run this close to the work it scales, the
probe tracks the drift the work sees.
"""

import gc
import time
from fractions import Fraction

# About the probe's mean time on the baseline machine, so that scaled
# times read close to its wall times.
PROBE_REF_S = 1.6e-3


def _probe_job(n: int) -> str:
    """Dict updates on tuple keys, Fraction sums and rendering, as in starwick."""
    acc: dict = {}
    for i in range(n):
        key = (i % 17, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return "".join(map(str, acc.values()))


def speed_probe() -> float:
    """Seconds the probe job takes now.  A short untimed pass first warms
    what the work before it evicted, and no garbage collection runs, so
    the time follows the host, not the state starwick left behind."""
    gc.disable()
    try:
        _probe_job(100)
        start = time.perf_counter()
        _probe_job(300)
        return time.perf_counter() - start
    finally:
        gc.enable()
