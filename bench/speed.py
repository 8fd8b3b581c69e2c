"""Machine speed, sampled with a fixed kernel, for reference-speed seconds.

On a shared 2-vCPU VM the CPU runs up to 1.6x slower for stretches of 3 to
30 s while other tenants are busy, which is longer than a run can average
away. So the benchmark samples the speed of a fixed kernel around every
timed step and between prompt decodes inside it, and reports each step in
reference-speed seconds: raw seconds times REFERENCE_S over the median
kernel time of the step. REFERENCE_S is the kernel's time on that VM when
it is not slowed, so there the two kinds of seconds agree.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
_TABLE = {(i, j): np.arange(28, dtype=np.int64) * ((7 * i + j) % 5 + 1)
          for i in range(28) for j in range(28)}


def kernel_s() -> float:
    """One run of a kernel shaped like a decode step (small NumPy vectors,
    tuple-keyed dict lookups); it uses nothing of heterospec."""
    start = time.perf_counter()
    ctx = (0, 1)
    for i in range(400):
        vec = _TABLE[ctx]
        dist = (vec + 0.1) / (vec.sum() + 2.8)
        top = np.argsort(-dist, kind="stable")[:2]
        ctx = (ctx[1], int(top[i % 2]))
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples taken around one timed step and inside it."""

    EDGE_SAMPLES = 3

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # kernel time spent inside the step's timing

    def edge(self) -> None:
        self.samples += [kernel_s() for _ in range(self.EDGE_SAMPLES)]

    def inside(self) -> float:
        """Take one sample within the step; returns the time it took, which
        the caller removes from whatever it is timing."""
        start = time.perf_counter()
        self.samples.append(kernel_s())
        spent = time.perf_counter() - start
        self.inside_s += spent
        return spent

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
