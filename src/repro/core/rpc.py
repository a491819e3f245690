"""Control-plane messaging with retries, backoff and circuit breaking.

The paper's control plane (user -> TCSP -> ISP NMS, Figs. 3-5) was modelled
as plain method calls guarded by a single ``reachable`` boolean.  Real
control channels lose messages, time out and must be retried; Sec. 5.1's
availability claim ("users fall back to the direct NMS path") only holds if
unreachability is *detected* rather than assumed.  This module provides the
small messaging layer every control-plane hop now goes through:

* :func:`backoff` — a per-call budget of ``ATTEMPTS`` attempts with bounded
  exponential backoff and deterministic jitter (derived from the seeded
  RNG, so runs are bit-for-bit reproducible);
* :class:`CircuitBreaker` — after ``BREAKER_THRESHOLD`` consecutive
  transport failures the channel *opens* and rejects calls instantly until
  ``BREAKER_RESET_AFTER`` simulated seconds pass, then *half-opens* to probe;
* :class:`ControlChannel` — one logical channel to one endpoint.  A call
  attempt is delivered unless (a) the endpoint reports itself down
  (``down_fn``) or (b) the attached :class:`~repro.net.faults.FaultInjector`
  drops the message.  Undelivered attempts are retried;
  exhaustion raises :class:`~repro.errors.RetryExhausted`, which subclasses
  :class:`~repro.errors.ControlPlaneUnavailable` so the existing direct
  peer-NMS failover engages automatically.

Application-level errors raised by the endpoint itself (certificate
mismatch, scope violation, ...) are **not** retried: the message was
delivered, the refusal is authoritative.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ControlPlaneUnavailable, RetryExhausted
from repro.obs.metrics import declare, reset_metrics
from repro.util.rng import derive_rng

__all__ = ["CircuitBreaker", "ControlChannel", "RpcStats", "backoff"]

#: attempts per call, the first one included
ATTEMPTS = 4
#: backoff before retry n+1 is BASE_DELAY * MULTIPLIER**n, capped at MAX_DELAY
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 1.0
#: jitter adds up to this fraction of the delay
JITTER = 0.1
#: consecutive exhausted calls that open a breaker
BREAKER_THRESHOLD = 5
#: seconds an open breaker waits before its half-open probe
BREAKER_RESET_AFTER = 2.0

_RPC_FIELDS = ("calls", "delivered", "retries", "drops", "exhausted",
               "rejected", "backoff_time")
_RPC_DECLS = {
    name: declare(f"rpc.{name}", "counter", labels=("channel",),
                  help=f"per-channel {name.replace('_', ' ')}")
    for name in _RPC_FIELDS
}
_BACKOFF_HIST = declare(
    "rpc.backoff_s", "histogram", labels=("channel",),
    help="distribution of accounted backoff delays per retry",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0))


def backoff(attempt: int, rng) -> float:
    """Delay before retry ``attempt + 1``: ``min(MAX_DELAY, BASE_DELAY *
    MULTIPLIER**attempt)`` plus a jitter drawn uniformly from ``[0, JITTER
    * that_delay)`` — the standard bounded exponential backoff, fully
    deterministic given the channel's RNG stream."""
    delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** attempt)
    return delay + float(rng.random()) * JITTER * delay


class CircuitBreaker:
    """Consecutive-failure circuit breaker over a monotonic clock.

    States: ``closed`` (calls flow), ``open`` (calls rejected instantly),
    ``half-open`` (one probe call allowed after ``BREAKER_RESET_AFTER``
    elapsed).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if self.clock() - self.opened_at >= BREAKER_RESET_AFTER:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a call proceed right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= BREAKER_THRESHOLD and self.opened_at is None:
            self.opened_at = self.clock()
            self.times_opened += 1
        elif self.opened_at is not None and self.state == "half-open":
            # failed probe: re-open for another full reset window
            self.opened_at = self.clock()
            self.times_opened += 1

    def reset(self) -> None:
        self.failures = 0
        self.opened_at = None


class RpcStats:
    """Per-channel counters (reported by E16), backed by the ambient
    :mod:`repro.obs` registry under ``rpc.*{channel=...}``.

    Field semantics: ``calls``/``delivered``/``retries``; ``drops`` are
    attempts lost in transport (down or injected); ``exhausted`` calls ran
    out of attempts; ``rejected`` calls hit an open circuit breaker;
    ``backoff_time`` is the cumulative backoff delay accounted.  The
    attribute API is a thin property view over the registered counters.
    """

    FIELDS = _RPC_FIELDS
    __slots__ = tuple(f"_m_{name}" for name in _RPC_FIELDS)

    def __init__(self, channel: str = "-") -> None:
        for name in _RPC_FIELDS:
            setattr(self, f"_m_{name}", _RPC_DECLS[name].labelled(channel=channel))

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in _RPC_FIELDS}

    def reset(self) -> None:
        reset_metrics(tuple(getattr(self, f"_m_{name}") for name in _RPC_FIELDS))


def _rpc_stat_property(name: str) -> property:
    def _get(self: RpcStats):
        return getattr(self, f"_m_{name}").value

    def _set(self: RpcStats, value) -> None:
        getattr(self, f"_m_{name}").value = value

    return property(_get, _set)


for _name in _RPC_FIELDS:
    setattr(RpcStats, _name, _rpc_stat_property(_name))


class ControlChannel:
    """One retry-aware control channel to one endpoint.

    ``down_fn`` reports endpoint-side unreachability (TCSP under DDoS, NMS
    partitioned); ``injector`` may additionally drop individual messages.
    The channel never sleeps: backoff delays are *accounted* in
    ``stats.backoff_time`` (and reproduced in E16's recovery accounting)
    rather than advancing the simulator, so routing a call through a
    channel is behaviour-preserving whenever nothing is failing.
    """

    def __init__(self, name: str, *,
                 clock: Callable[[], float] = lambda: 0.0,
                 down_fn: Optional[Callable[[], bool]] = None,
                 injector: Optional[Any] = None) -> None:
        self.name = name
        self.clock = clock
        self.down_fn = down_fn or (lambda: False)
        self.injector = injector
        self.breaker = CircuitBreaker(clock)
        self.stats = RpcStats(channel=name)
        self._backoff_hist = _BACKOFF_HIST.labelled(channel=name)
        self._rng = derive_rng(0, "rpc", name)

    # ------------------------------------------------------------------ calls
    def call(self, op: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Invoke ``fn(*args, **kwargs)`` as one control-plane message.

        Each attempt is delivered iff the endpoint is up and the fault
        injector does not drop the message; delivered attempts execute
        exactly once.  Raises :class:`RetryExhausted` after ``ATTEMPTS``
        undelivered attempts, or :class:`ControlPlaneUnavailable` instantly
        while the circuit breaker is open.
        """
        self.stats.calls += 1
        if not self.breaker.allow():
            self.stats.rejected += 1
            raise ControlPlaneUnavailable(
                f"channel {self.name!r}: circuit open after "
                f"{self.breaker.failures} consecutive failures"
            )
        for attempt in range(ATTEMPTS):
            if attempt > 0:
                self.stats.retries += 1
                delay = backoff(attempt - 1, self._rng)
                self.stats.backoff_time += delay
                self._backoff_hist.observe(delay)
            if self._delivered(op):
                result = fn(*args, **kwargs)
                self.breaker.record_success()
                self.stats.delivered += 1
                return result
            self.stats.drops += 1
        self.stats.exhausted += 1
        self.breaker.record_failure()
        raise RetryExhausted(
            f"channel {self.name!r}: {op!r} undelivered after "
            f"{ATTEMPTS} attempts"
        )

    def _delivered(self, op: str) -> bool:
        if self.down_fn():
            return False
        if self.injector is not None:
            return not self.injector.drop_message(self.name, op, self.clock())
        return True

    # -------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Forget transient state (breaker, counters, RNG stream position)."""
        self.breaker.reset()
        self.stats.reset()
        self._backoff_hist.reset()
        self._rng = derive_rng(0, "rpc", self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ControlChannel({self.name!r}, breaker={self.breaker.state}, "
                f"calls={self.stats.calls})")
