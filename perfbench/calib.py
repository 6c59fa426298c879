"""Machine-speed calibration for a shared, noisy host.

The host this benchmark was built on changes speed by up to 1.6x between
20-second windows, and by 1.3x within a few seconds (co-tenant load); that
would swamp any program change.  So every timed interval is sampled with a
fixed calibration kernel, and times are reported in reference seconds:

    reference_time = (wall_time - sampling_time) * REFERENCE_S / mean(kernel_times)

The kernel runs just before and just after the interval, and from a SIGALRM
handler every PERIOD_S inside it, in the same thread, so a long job is
normalised by the speed the machine had while it ran.  The kernel is the
benchmark's own code, not the program's, so no program change can move it.
It does the same kind of work as the program: fraction-free elimination on
Python integers plus ``fractions.Fraction`` arithmetic.  Raw wall times are
kept in the run record next to the reference times.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# Median kernel time on the machine the baseline was recorded on (2 vCPUs,
# Python 3.11.7) when it was quiet; reference seconds are seconds there.
REFERENCE_S = 0.0022
PERIOD_S = 0.25

_SIDE = 28
_MATRIX = [[random.Random(7 * i + j).randint(-9, 9) for j in range(_SIDE)] for i in range(_SIDE)]


def _kernel() -> int:
    a = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_SIDE - 1):
        pivot = next(i for i in range(k, _SIDE) if a[i][k])
        a[k], a[pivot] = a[pivot], a[k]
        pk = a[k][k]
        for i in range(k + 1, _SIDE):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, _SIDE):
                row_i[j] = (row_i[j] * pk - aik * row_k[j]) // prev
        prev = pk
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(a[-1][-1] % 97 + i, i + 1) * Fraction(i, 3)
    return total.numerator


def kernel_s() -> float:
    """Median wall time of the calibration kernel over five repeats."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def to_reference(wall_s: float, kernel_times: list[float], sampling_s: float = 0.0) -> float:
    """Wall time of an interval in reference seconds."""
    return (wall_s - sampling_s) * REFERENCE_S / statistics.fmean(kernel_times)


class SpeedSampler:
    """Runs the kernel from SIGALRM every PERIOD_S while active (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
