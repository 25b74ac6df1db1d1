"""The machine's current speed, from a fixed pure-Python reference loop.

A 2-vCPU virtual machine on a shared host runs for tens of seconds at a
time up to 1.6x slower than its best, whatever the program does.  Timings
are therefore taken next to a probe of the same loop and reported scaled
to the loop's uncontended speed:

    scaled = wall * REFERENCE_S / probe

so a run on a contended host reads what it would have read uncontended.
Wall-clock figures stay in each run's record.  A change to choquetkit moves
the scaled times exactly as it moves wall time, because the probe does not
touch choquetkit.
"""

from __future__ import annotations

import math
import time

# probe() on an uncontended 2-vCPU Intel Xeon virtual machine, Python 3.11.7
REFERENCE_S = 5.5e-5
PROBE_EVERY_S = 0.005


def probe() -> float:
    """Fastest of three runs of the reference loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s
