"""Machine-speed probe: a fixed workload that never calls gft_lab.

On a machine whose CPUs are shared with other load, the same code can run up
to 1.8x slower for seconds to minutes at a time (measured on the 2-vCPU
machine that set the baseline). End-to-end times are therefore reported at a
reference speed: a raw time t, with p the probe time measured around it, is
reported as t * REFERENCE_PROBE_S / p. The probe mixes interpreter loops,
small-object work and small numpy calls, like the program, so it slows under
the same load, though not always by the same factor; a change to gft_lab
moves the reported times and never the probe. Raw times stay in the run
record.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest probe time observed on the machine that set the baseline (2 vCPU
# Intel Xeon, Python 3.11.7, numpy 2.4.6). It only fixes the scale.
REFERENCE_PROBE_S = 0.005


def _work() -> float:
    s = 0
    for i in range(40000):
        s += i * i % 7
    a = np.random.default_rng(0).random(64)
    total = float(s)
    for _ in range(200):
        d = {i: float(x) for i, x in enumerate(a[:16])}
        top = sorted(d, key=lambda i: (-d[i], i))[:4]
        total += sum(d[i] for i in top) + int(np.searchsorted(a[:32], 0.5)) + float(np.dot(a[:8], a[8:16]))
    m = np.outer(a, a)
    for _ in range(20):
        total += float((m * m + m).sum(axis=1).max())
    return total


def probe(repeats: int = 3) -> float:
    """Fastest of `repeats` timings of the fixed workload, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
