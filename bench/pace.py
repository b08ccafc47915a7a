"""Host-speed correction for the benchmark's wall times.

On a shared 2-vCPU host (Intel Xeon, 2.0 GHz nominal) each vCPU was seen
to switch between a fast and a slow state.  In the slow state the same work
took 1.4x (numpy kernel) to 1.7x (interpreter-bound solver) longer.  A state
lasts from a fraction of a second to minutes, so whole 30-second runs could
land in the slow state, and the fastest of several passes did not remove it.

While a ``Pace`` is active, a timer signal every ``PERIOD_S`` seconds runs a
fixed reference loop in the benchmark's own thread and records how long the
loop took.  ``seconds(start, end)`` takes the wall time of an interval,
removes the time those samples spent in the loop, and scales the rest by
the mean of ``REFERENCE_S / loop time`` over the samples in and around the
interval.  The result is seconds at the reference speed.  Convert after the
``Pace`` block ends, so the samples after each interval exist.  The loop uses
neither hyperspec nor anything a change to hyperspec could alter.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
# loop time inside the signal handler in the host's fast state (Intel Xeon,
# 2.0 GHz nominal, Python 3.11, numpy 2.4); it only sets the scale
REFERENCE_S = 2.85e-4

_ARRAY = np.linspace(0.0, 1.0, 256)


def _reference_loop() -> float:
    """Fixed interpreter and small-array numpy work, like the solver's mix."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    x = _ARRAY
    for _ in range(40):
        x = np.sqrt(x * x + 1.0) - 0.5
    return acc + float(x[0])


class Pace:
    """Samples the host's speed while active; see the module docstring."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _reference_loop()
        self._starts.append(t0)
        self._durations.append(perf_counter() - t0)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] converted to seconds at the reference speed."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        inside = sum(self._durations[lo:hi])
        # samples in the interval and one either side, so a short interval
        # between two samples still gets the speed around it
        around = self._durations[max(lo - 1, 0) : hi + 1]
        if not around:
            return end - start
        speed = sum(REFERENCE_S / d for d in around) / len(around)
        return (end - start - inside) * speed
