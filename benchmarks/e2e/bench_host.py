"""Host-speed sampling, to take co-tenant contention out of timings.

On a shared 2-vCPU virtual machine (where the baseline was recorded) a
fixed pure-Python loop runs anywhere from 1.0x to 2.0x its best time from
one 50-ms sample to the next, with slow spells of 20 s and more.  Raw wall
times of identical runs spread by 5-40% (interquartile range over median)
under such contention.

:class:`HostSpeed` runs a fixed calibration sample every
:data:`INTERVAL_S` on a background thread for the duration of a ``with``
block and records how long each took.  Over any interval, the mean of
``QUIET_WORK_NS / sample time`` is the host's speed relative to an
uncontended core; multiplying a measured time by it gives the time the
same work would have taken uncontended ("quiet seconds").  The samples
hold the interpreter lock for about 0.1 ms every 10 ms, which the
measured code pays as a constant ~1% on every run.

The slowdown is invisible to the guest (no steal time is accounted, and
thread CPU time grows with wall time), so only a probe like this sees
it.  The probe's mean over an interval tracks the interval's average
speed; the best of a few probes taken just before or after the interval
does not, because it catches the fast moments of a host that alternates
between fast and stalled.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right

#: Duration of one calibration sample on an uncontended core of the
#: machine the baseline was recorded on (its fastest 1-2% of samples);
#: it only scales the normalised numbers.
QUIET_WORK_NS = 110_000
INTERVAL_S = 0.010


def calibration_work() -> int:
    """The fixed sample: dict stores and lookups, like the simulator's."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        table[i & 255] = i
        acc += table.get(i & 127, 0) % 7
    return acc


class HostSpeed:
    """Background sampler of the host's current speed."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.speeds: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="host-speed")

    def _sample_once(self) -> None:
        t0 = time.perf_counter_ns()
        calibration_work()
        elapsed = time.perf_counter_ns() - t0
        with self._lock:
            self.times.append(t0)
            self.speeds.append(QUIET_WORK_NS / elapsed)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample_once()

    def __enter__(self) -> "HostSpeed":
        self._sample_once()  # so that speed() has a sample from the start
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean relative speed over ``[start_ns, end_ns]`` (1.0: an
        uncontended core).  An interval shorter than the sampling period
        takes the samples on either side of it."""
        with self._lock:
            lo = bisect_left(self.times, start_ns)
            hi = bisect_right(self.times, end_ns)
            if lo == hi:
                lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
            window = self.speeds[lo:hi]
        return sum(window) / len(window)
