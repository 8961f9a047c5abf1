"""A fixed reference computation that tracks the machine's current speed.

On a shared virtual machine the speed available to one process drifts, by
up to a factor of two over minutes on a 2-vCPU host. Time metrics are
therefore scaled by how long this frozen kernel takes right around each
measurement: `reference_seconds = measured * REFERENCE_S / kernel_seconds`.
The kernel does what the program spends its time on: scalar float
arithmetic and math calls in Python functions, small numpy arrays, and
number formatting into CSV text. It is part of the benchmark, never of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel time [s] that defines reference speed; a typical value on the
#: 2-vCPU Xeon VM where the benchmark was written.
REFERENCE_S = 0.025


def _rhs(y0: float, y1: float, y2: float, params: dict):
    c = y0 / (y0 + y1 + params["eps"])
    sigma = 1.0 / (1.0 + math.exp(-params["alpha"] * (params["c_max"] - c)))
    flow = min(max(y2, 0.0), params["q_max"]) ** params["n"]
    return (-c * flow, sigma * flow - 0.1 * y1,
            (sigma * params["q_max"] - y2) / params["tau"])


def kernel() -> str:
    params = {"eps": 1e-9, "alpha": 200.0, "c_max": 0.3, "q_max": 0.004,
              "n": 0.75, "tau": 120.0}
    y = np.array([2500.0, 25000.0, 0.003])
    rows = []
    for step in range(5000):
        k = np.array(_rhs(float(y[0]), float(y[1]), float(y[2]), params))
        y = y + 0.5 * k
        if step % 4 == 0:
            rows.append(",".join(np.format_float_positional(
                v, precision=9, unique=False, fractional=False, trim="-")
                for v in (step * 0.5, *y, *k)))
    return "\n".join(rows)


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Timeline:
    """Kernel runs between measurements, giving each its scale factor."""

    def __init__(self):
        self.kernel_s = [measure()]

    def factor(self) -> float:
        """Run the kernel; the factor for the time since its previous run.

        Multiplying a time measured in that interval by the factor gives it
        at reference speed; the kernel time used is the mean of the runs
        that bracket the interval.
        """
        self.kernel_s.append(measure())
        return REFERENCE_S / (0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))

    def run(self, fn):
        """fn() and the factor for the time it took.

        For a steadier factor on a rare, long measurement, the kernel time
        on each side of fn is the median of three kernel runs.
        """
        before = [self.kernel_s[-1], measure(), measure()]
        result = fn()
        after = [measure() for _ in range(3)]
        self.kernel_s += before[1:] + after
        return result, REFERENCE_S / (
            0.5 * (statistics.median(before) + statistics.median(after)))
