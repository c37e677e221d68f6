"""A fixed kernel timed around every repetition, to take the machine's
speed at that moment out of the host-time metrics.

The reference box is a shared VM: a noisy neighbour slows stretches of
seconds to minutes by 20-50%, which no median inside a 15 s run removes.
The kernel is half interpreter-bound and half small-matrix numpy, like the
program, and takes ~70 ms. A repetition's host time is reported as

    raw seconds x REFERENCE_S / (kernel seconds just before and after it)

that is, as seconds at the reference box's calm speed. On that box in a
calm moment the factor is 1. The raw medians are printed next to it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

N_NUMERIC = 220

#: Kernel seconds on the reference box (2 vCPU Xeon 2.1 GHz, Python 3.11.7,
#: numpy 2.4.6) when nothing else runs: the median of 150 runs.
REFERENCE_S = 0.071

_operands = []


def calibrate() -> float:
    """Run the kernel once; return its wall time in seconds.

    It keeps under 1 MB live, so that timing it does not move the peak RSS
    the same process reports.
    """
    import numpy as np  # here, so that run.py can import this module cheaply

    if not _operands:
        rng = np.random.default_rng(0)
        _operands.append(rng.random((64, 256), dtype=np.float32))
        _operands.append(rng.random((256, 512), dtype=np.float32))
    a, b = _operands
    t0 = time.perf_counter()
    heap, table, x = [], {}, 0
    for i in range(100000):
        x += i * i
        table[i & 255] = x
        heappush(heap, (i * 7919) % 1000)
        if len(heap) > 256:
            heappop(heap)
    for _ in range(N_NUMERIC):
        z = a @ b
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0


def at_reference_speed(raw_s: float, *kernel_s: float) -> float:
    """``raw_s`` rescaled by the kernel timings taken next to it."""
    return raw_s * REFERENCE_S * len(kernel_s) / sum(kernel_s)
