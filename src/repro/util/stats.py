"""Small statistics helpers used by devices, links and experiments."""

from __future__ import annotations

from collections import deque

__all__ = ["WindowedCounter"]


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
