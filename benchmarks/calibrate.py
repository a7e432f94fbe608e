"""Host-speed calibration.

The benchmark shares a small host with other tenants, whose load changes
the host's speed by 20-40% over seconds to minutes (measured on a 2-vCPU
Intel Xeon guest).  A fixed pure-Python kernel that does not depend on
idealshi is timed before and after every timed command.  Its time divided
by ``REFERENCE_S`` (its median time on that host) is the host's slowness at
that moment, and the end-to-end timings are divided by it.  On that host
this roughly halves the run-to-run spread of the timings.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.047
REPEATS = 5


def _kernel() -> int:
    x = 0
    for i in range(600000):
        x = (x * 31 + i) % 1000003
    return x


def _sample() -> list[float]:
    """REPEATS timings of the kernel, in seconds."""
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


class Clock:
    """Calibration samples taken before and after every timed command.

    ``slowness(i)`` says how much slower than the reference the host ran at
    sample i (1.0 = as fast); a command's slowness is the geometric mean of
    the samples just before and just after it."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def calibrate(self) -> None:
        self.samples.append(_sample())

    def slowness(self, i: int) -> float:
        return statistics.median(self.samples[i]) / REFERENCE_S

    def around(self, i: int) -> float:
        return (self.slowness(i) * self.slowness(i + 1)) ** 0.5
