"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by +-20% over tens of
seconds, far more than the bounds a timing has to hold.  So right before
every op the worker runs a fixed calibration kernel (a pure-Python loop
plus small NumPy calls, the same mix the program spends its time in) and
every reported time is scaled by ``REF_S / c``, where ``c`` is the median
kernel time of the nine ops around it.  A reported time is therefore the
time the op would take on a machine that runs the kernel in ``REF_S``
seconds.  The kernel does not touch the program, so a slower program still
reads slower; only the drift of the machine cancels.  Raw wall times are
kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.002
_WINDOW = 4
_ARRAY = np.linspace(1.0, 2.0, 256)


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += (i * 0.5) % 3.0
    x = _ARRAY
    for _ in range(150):
        x = np.log(np.exp(x) + 1.0) - 0.5
    return time.perf_counter() - t0


def factors(cals) -> list:
    """Per-op scale REF_S / c, with c the median kernel time over the
    ops within ``_WINDOW`` places of each op."""
    return [REF_S / statistics.median(cals[max(0, i - _WINDOW):i + _WINDOW + 1])
            for i in range(len(cals))]
