"""How fast the machine runs right now, measured with fixed reference work.

The benchmark's host is a shared VM whose speed drifts by up to 1.8x over
seconds to minutes, with other tenants' load.  The same ``kgroups`` call
swings with it, so raw timings of runs made minutes apart disagree by more
than any useful bound.  ``SpeedProbe`` times ``reference_work`` next to
each measured call; a call's time multiplied by ``REFERENCE_S / reference
time`` is its time at the reference speed, which follows the program and
not the neighbours.  The reference work lives here, outside the program,
so no change to kneadck can move it.  The raw timings are reported beside
the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: Seconds ``reference_work`` takes at the reference speed: the fastest
#: this VM ran it (2-core Xeon VM, CPython 3.11, numpy 2.4).  Timings are
#: reported as if the machine ran at that speed.
REFERENCE_S = 0.0009

#: Reference timings per probe; their median is used.
REPEATS = 3


def reference_work() -> int:
    """Fixed work of the kinds kneadck spends its time on: row operations
    on object arrays of Python ints, big-int and Fraction arithmetic, a
    float iteration and string comparison."""
    m = np.arange(1, 26, dtype=object).reshape(5, 5)
    for k in range(60):
        m[k % 5] = m[k % 5] * 7 - m[(k + 2) % 5] * 3
    f = sum(Fraction(1, d) for d in range(1, 80))
    x = 0.3
    for _ in range(4000):
        x = 3.9 * x * (1.0 - x)
    s = sum(1 for i in range(1000) if "RLRLRC"[i % 6:] < "RLRRLC"[i % 5:])
    return int(m[0, 0] % 1000) + f.denominator % 7 + int(x * 10) + s


def reference_seconds() -> float:
    """Median time of ``REPEATS`` runs of ``reference_work``."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedProbe:
    """The machine's speed of the moment, re-measured once ``every_s``
    seconds have passed since the last probe, and every ``every_s``
    seconds inside a call timed by ``measure``."""

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.at = -float("inf")
        self.last_s = REFERENCE_S
        self.probes: list[float] = []

    def factor(self, force: bool = False) -> float:
        """``REFERENCE_S`` over the current reference time: below 1 when
        the machine runs slower than the reference speed."""
        if force or time.perf_counter() - self.at > self.every_s:
            self.last_s = reference_seconds()
            self.at = time.perf_counter()
            self.probes.append(self.last_s)
        return REFERENCE_S / self.last_s

    def measure(self, fn):
        """Run ``fn()``; return its result, its seconds, and the mean speed
        factor over the probes taken before, during and after it.

        Probes inside the call run from a ``SIGALRM`` timer, so a long call
        is scaled by the speed it actually ran at; the seconds they take
        are not counted as the call's.
        """
        factors = [self.factor()]
        inside = []
        probe_s = 0.0

        def on_alarm(signum, frame):
            nonlocal probe_s
            start = time.perf_counter()
            inside.append(self.factor(force=True))
            probe_s += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start - probe_s
            signal.signal(signal.SIGALRM, previous)
        factors += inside
        factors.append(self.factor())
        return result, seconds, statistics.fmean(factors)

    def median_factor(self) -> float:
        """The speed factor of the median probe so far."""
        return REFERENCE_S / statistics.median(self.probes) if self.probes else 1.0
