"""Host-speed reference for the benchmark's time metrics.

The benchmark shares its host with other tenants, and the host's throughput
for the same interpreter loop drifts by about 25% over 20 s windows on a
2-core Xeon.  The probe runs a fixed piece of interpreter work (tuple, dict,
Fraction and big-int arithmetic, like quadkit's hot paths) between the
benchmark's ops, at most every 0.25 s and never inside a timed op.  A time
measured while the reference took r seconds is reported as

    t_cpu * REFERENCE_S / r + t_budget

that is, in seconds at the speed at which the reference takes REFERENCE_S.
``t_budget`` is time spent waiting out a fixed wall-clock budget (Groebner
time limits), which does not scale with host speed.  The probe is benchmark
code, so a change to quadkit cannot move it; raw times are printed beside
the normalized ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median reference time on the 2-core Xeon the bounds were set on.
REFERENCE_S = 0.0085
INTERVAL_S = 0.25


def reference_work() -> int:
    acc = 0
    table: dict = {}
    for i in range(3000):
        key = (i & 7, i % 5, i % 3, i % 11)
        mono = tuple(a + b for a, b in zip(key, (1, 2, 3, 4)))
        table[mono] = table.get(mono, 0) + i
    f = Fraction(1, 3)
    for i in range(300):
        f = (f * Fraction(i + 1, 7) + 1) / (f + 2)
    x = 3 ** 200
    for i in range(300):
        acc += (x * (i + 1)) % 1000003
    return acc + len(table) + f.numerator % 7


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (end time, seconds)

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def tick(self) -> None:
        """Sample if the last sample is older than INTERVAL_S."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def factor(self, since: float) -> float:
        """REFERENCE_S over the median reference time sampled since `since`
        (a perf_counter value); the caller samples at both ends."""
        window = [s for t, s in self.samples if t >= since]
        return REFERENCE_S / statistics.median(window)
