"""Token-bucket rate limiter.

Used by the adaptive-device ``RateLimiter`` component (Sec. 4.2 of the paper:
"traffic rate limiting") and by the pushback baseline.  The bucket is driven
by explicit timestamps so it composes with the discrete-event simulator
instead of wall-clock time.
"""

from __future__ import annotations

import math

from repro.errors import ReproError

__all__ = ["TokenBucket"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``.

    Tokens are measured in arbitrary units — bytes for byte-rate limiting,
    packets (token cost 1) for packet-rate limiting.

    >>> tb = TokenBucket(rate=100.0, burst=100.0)
    >>> tb.admit(now=0.0, cost=100.0)
    True
    >>> tb.admit(now=0.0, cost=1.0)   # bucket drained
    False
    >>> tb.admit(now=1.0, cost=100.0)  # refilled after 1 s
    True
    """

    __slots__ = ("rate", "burst", "_tokens", "_last", "admitted", "rejected")

    def __init__(self, rate: float, burst: float) -> None:
        # NaN fails every comparison, so this also rejects a NaN
        if not (0.0 <= rate < math.inf and 0.0 < burst < math.inf):
            raise ReproError(f"invalid token bucket: rate={rate}, burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0
        self.admitted = 0
        self.rejected = 0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now

    def peek(self, now: float) -> float:
        """Tokens available at time ``now`` without consuming any."""
        self._refill(now)
        return self._tokens

    def admit(self, now: float, cost: float = 1.0) -> bool:
        """Try to consume ``cost`` tokens at time ``now``.

        Returns True (and consumes) if enough tokens are available, else
        False (consuming nothing).  ``now`` may not move backwards; stale
        timestamps are clamped to the latest seen, which keeps the bucket
        well-defined even for simultaneous events popped in arbitrary order.
        """
        self._refill(now)
        if self._tokens >= cost:
            self._tokens -= cost
            self.admitted += 1
            return True
        self.rejected += 1
        return False

    def reset(self) -> None:
        """Refill the bucket and zero the counters."""
        self._tokens = self.burst
        self._last = 0.0
        self.admitted = 0
        self.rejected = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenBucket(rate={self.rate}, burst={self.burst}, tokens={self._tokens:.1f})"
