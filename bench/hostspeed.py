"""A fixed reference kernel that tells how fast the host runs at the moment.

On a shared 2-vCPU host the same sweep_shock_n50 pass took from 1.0 to 1.9 s
within one minute, and the median pass time over 45-second windows drifted by
a third: the neighbours slow the CPU (CPU time grows with wall time) in phases
that last longer than a run, so no number of passes within a run averages
them out. The kernel below, a pure-Python loop and a loop of small-array numpy
calls that runs no code of the package, is timed between passes. A pass's
time divided by the kernel's time beside it does not follow the host's phase,
so the benchmark reports times as that ratio times ``REFERENCE_S``: seconds at
a host speed at which the kernel takes ``REFERENCE_S``. Over 30- to 45-second
windows of 200-second runs on a 2-vCPU VM, this cut the spread (IQR/median
of the window medians) of the pass time from 0.18 to 0.02 on sweep_shock_n50
and from 0.12 to 0.05 on recovery_n1000.
"""
from __future__ import annotations

import time

import numpy as np

# A round figure near the kernel's median time on the 2-vCPU x86-64 Linux VM
# where the baseline was recorded (0.04 to 0.08 s there, with Python 3.11.7,
# numpy 2.4.6 and BLAS on one thread), so reported times stay close to
# measured ones. Changing it rescales every reported time.
REFERENCE_S = 0.05


def kernel() -> float:
    """Interpreter work (integer arithmetic, dict stores) and numpy calls on
    a 50-element array, the two kinds of work the workloads' passes do."""
    table, acc = {}, 0
    for i in range(200_000):
        acc += (i * i) % 7
        table[i & 1023] = acc
    a = np.arange(50.0)
    for _ in range(5_000):
        a = np.minimum(a * 1.0001, 100.0) + a.sum() * 1e-9
    return acc + float(a[0])


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the kernel times just before and
    just after them."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
