"""Host-speed correction for timings taken on a shared machine.

On a shared virtual machine the CPU that runs the benchmark switches
between speed states: the same Python code runs about 1.6 times slower
for spells of a fraction of a second to minutes, and the process's CPU
time grows with it, so neither wall time nor CPU time stays comparable
between runs.
`SpeedProbe` samples the current speed with a fixed piece of
interpreter work on a SIGALRM timer; `corrected` integrates the sampled
speed over an interval, which gives the time the interval would have
taken at the reference speed.  The probe's own time is left out.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_right
from time import perf_counter

INTERVAL_S = 0.025
# Probe time at the fast speed state of the reference machine (2.1 GHz
# Xeon VM, CPython 3.11), so corrected times read as seconds there.
REFERENCE_PROBE_S = 2.8e-4


def _probe_work() -> int:
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i % 17, i * 3 % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += (key[0] * key[1] + i) % 5
    return acc + len(seen)


class SpeedProbe:
    """Context manager that samples the CPU's speed every INTERVAL_S seconds."""

    def __init__(self) -> None:
        self.at = array("d")  # end time of each sample
        self.cost = array("d")  # duration of the probe work at that sample
        self._smooth: list[float] | None = None
        self._old = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        self.at.append(t1)
        self.cost.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)  # the sample after the last interval

    def corrected(self, t0: float, t1: float) -> float:
        """Time of [t0, t1] without the probe, rescaled to the reference speed.

        Between two samples the speed is taken as that of the later one,
        smoothed as the median of the 5 samples around it.
        """
        if self._smooth is None:
            cost = self.cost
            self._smooth = [statistics.median(cost[max(k - 2, 0):k + 3]) for k in range(len(cost))]
        total = 0.0
        k = bisect_right(self.at, t0)
        while True:
            if k == len(self.at):
                raise RuntimeError("no speed sample after the interval; the probe is not running")
            start = self.at[k - 1] if k else t0
            end = self.at[k] - self.cost[k]  # the probe ran from here to at[k]
            overlap = min(t1, end) - max(t0, start)
            if overlap > 0:
                total += overlap * REFERENCE_PROBE_S / self._smooth[k]
            if self.at[k] >= t1:
                return total
            k += 1
