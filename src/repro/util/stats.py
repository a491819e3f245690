"""Small statistics helpers used by devices, links and experiments."""

from __future__ import annotations

import math
from collections import deque

__all__ = ["OnlineStats", "WindowedCounter"]


class OnlineStats:
    """Streaming mean/variance/min/max (Welford's algorithm).

    Constant memory, numerically stable — suitable for per-packet metrics in
    long simulation runs.

    >>> s = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0): s.add(x)
    >>> s.mean
    2.0
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation into the summary."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two summaries (parallel-merge form of Welford)."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self._mean, self._m2 = other.n, other._mean, other._m2
            self.min, self.max = other.min, other.max
            return self
        delta = other._mean - self._mean
        total = self.n + other.n
        self._m2 += other._m2 + delta * delta * self.n * other.n / total
        self._mean += delta * other.n / total
        self.n = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


class WindowedCounter:
    """Count of events inside a sliding time window.

    Used by trigger components ("rate of connection attempts ... exceeding
    expected boundaries", Sec. 4.4) and by the runtime safety monitor.
    A running sum makes :meth:`total` O(1); it stays exact because every
    caller passes integer-valued weights.
    """

    __slots__ = ("window", "_events", "_sum")

    def __init__(self, window: float) -> None:
        self.window = float(window)
        self._events: deque[tuple[float, float]] = deque()
        self._sum = 0.0

    def add(self, now: float, weight: float = 1.0) -> None:
        """Record an event of the given weight at time ``now``."""
        self._events.append((now, weight))
        self._sum += weight
        self._expire(now)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        ev = self._events
        while ev and ev[0][0] < cutoff:
            self._sum -= ev.popleft()[1]
        if not ev:
            self._sum = 0.0

    def total(self, now: float) -> float:
        """Sum of weights inside ``[now - window, now]``."""
        self._expire(now)
        return self._sum

    def rate(self, now: float) -> float:
        """Average weight per second over the window."""
        return self.total(now) / self.window if self.window > 0 else 0.0

    def __len__(self) -> int:
        return len(self._events)
