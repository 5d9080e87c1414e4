"""Host-speed calibration for the timed runs.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts with what the neighbours do: on the reference machine, the
kernel below ran up to 1.7x slower in one run than in another a few
minutes later, in swings that last from a second to minutes.  Every
request of the workloads slows with it, so a raw latency measures the
neighbours as much as nodalcover.

``probe`` runs a frozen reference kernel right after each request.  The
kernel is pure Python of the same kind as the library's work (tuple words
in a free product, a set of them, small-integer polynomial products mod 7).
It never touches nodalcover, so no change to the library can change its
time.  The cyclic garbage collector is off while it runs, so its time does
not depend on the size of the library's heap either.

``factors`` turns the probe times into one host factor per request: the
median of the ``WINDOW`` probes on each side of it and its own, divided by
``NOMINAL_S``, the kernel's typical time on the reference machine.  A
request's reported latency is its measured latency divided by its factor:
the time it would have taken on the reference machine at that typical
speed.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median kernel time on the reference machine (2 vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7) over 300 probes.  Fixed: it sets the scale of every
# reported time and must be the same on every commit.
NOMINAL_S = 0.004
WINDOW = 2  # probes on each side of a request that its factor uses
FACTORS = ((0, 2), (1, 3), (2, 2))  # (factor id, order) of the kernel's free product


def kernel() -> int:
    """Words of length <= 7 in Z2 * Z3 * Z2, then 240 products mod 7."""
    seen = {()}
    frontier = [()]
    for _ in range(7):
        grown = []
        for w in frontier:
            last = w[-1][0] if w else -1
            for f, order in FACTORS:
                if f == last:
                    continue
                for e in range(1, order):
                    v = w + ((f, e),)
                    if v not in seen:
                        seen.add(v)
                        grown.append(v)
        frontier = grown
    acc = (1,)
    for k in range(240):
        b = (k % 7, 1, (3 * k) % 7)
        out = [0] * (len(acc) + len(b) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 7
        acc = tuple(out[-12:])
    return len(seen) + sum(acc)


def probe() -> float:
    """Wall time of one kernel run, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(probes: list[float]) -> list[float]:
    """Host factor of each request from the probes taken around it."""
    return [statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1]) / NOMINAL_S
            for i in range(len(probes))]
