"""A fixed calibration kernel that tracks how fast this machine runs right now.

On a shared host the same code runs 20-30% slower or faster for minutes at
a time.  The benchmark times this kernel next to the program and reports
times in reference seconds: measured seconds * REFERENCE_S / (median kernel
time in the same run).  The kernel takes about equal time in four kinds of
work the workloads do: interpreter-bound Fraction arithmetic, small numpy
ufunc calls, scipy ``logsumexp`` on small arrays, and in-place passes over
an array larger than the L2 cache.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

REFERENCE_S = 0.06   # the kernel's typical time on the 2-vCPU VM the bounds were set on


def calibrate() -> float:
    """Seconds for one run of the kernel."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 3200):
        acc += Fraction(i % 13, i)
    x = np.zeros(3)
    for _ in range(4500):
        x = np.log(np.exp(x) + 1.0) - 1.0
    small = np.ones((3, 3))
    for _ in range(150):
        logsumexp(small + 0.5, axis=1)
    a = np.arange(2**19, dtype=float)     # 4 MB, updated in place: no allocator in the loop
    for _ in range(36):
        np.multiply(a, 1.0001, out=a)
        np.add(a, 1.0, out=a)
    return time.perf_counter() - start


def to_reference(seconds: float, kernel_times: list[float]) -> float:
    """Seconds rescaled to the machine speed at which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)
