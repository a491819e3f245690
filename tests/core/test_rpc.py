"""The control-plane messaging layer: retries, backoff, circuit breaking.

The key invariant: a channel whose endpoint is healthy is *transparent* —
the wrapped function runs exactly once, no RNG is consumed, no delay is
accounted.  Failures are retried deterministically and surface as
:class:`RetryExhausted`, which existing ``except ControlPlaneUnavailable``
fallbacks catch unchanged.
"""

import pytest

from repro.core import rpc
from repro.core.rpc import ControlChannel, backoff
from repro.errors import ControlPlaneUnavailable, RetryExhausted


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class AlwaysDrop:
    def drop_message(self, channel, op, now):
        return True


class NeverDrop:
    def drop_message(self, channel, op, now):
        return False


class TestHealthyChannel:
    def test_delivers_exactly_once(self):
        chan = ControlChannel("t")
        calls = []
        out = chan.call("op", lambda x: calls.append(x) or x + 1, 41)
        assert out == 42
        assert calls == [41]
        assert chan.stats.calls == chan.stats.delivered == 1
        assert chan.stats.retries == chan.stats.drops == 0
        assert chan.stats.backoff_time == 0.0

    def test_application_errors_propagate_without_retry(self):
        chan = ControlChannel("t")
        attempts = []

        def fail():
            attempts.append(1)
            raise ValueError("delivered but refused")

        with pytest.raises(ValueError):
            chan.call("op", fail)
        assert attempts == [1]  # the refusal is authoritative, not retried
        assert chan.stats.retries == 0

    def test_kwargs_pass_through(self):
        chan = ControlChannel("t")
        assert chan.call("op", dict, a=1) == {"a": 1}


class TestRetries:
    def test_exhaustion_raises_retry_exhausted(self):
        chan = ControlChannel("t", down_fn=lambda: True)
        with pytest.raises(RetryExhausted):
            chan.call("op", lambda: "never")
        assert chan.stats.drops == rpc.ATTEMPTS
        assert chan.stats.retries == rpc.ATTEMPTS - 1
        assert chan.stats.exhausted == 1
        assert chan.stats.backoff_time > 0.0

    def test_retry_exhausted_is_control_plane_unavailable(self):
        # existing `except ControlPlaneUnavailable` failover paths must
        # keep catching the new exception
        assert issubclass(RetryExhausted, ControlPlaneUnavailable)

    def test_transient_outage_recovered_by_retry(self):
        down = [True, True]

        def down_fn():
            return down.pop() if down else False

        chan = ControlChannel("t", down_fn=down_fn)
        assert chan.call("op", lambda: "ok") == "ok"
        assert chan.stats.retries == 2
        assert chan.stats.delivered == 1

    def test_undelivered_attempts_never_execute_fn(self):
        chan = ControlChannel("t", down_fn=lambda: True)
        ran = []
        with pytest.raises(RetryExhausted):
            chan.call("op", lambda: ran.append(1))
        assert ran == []  # transport failure = fn never invoked

    def test_injected_loss_drops_and_recovers(self):
        lossy = ControlChannel("t", injector=AlwaysDrop())
        with pytest.raises(RetryExhausted):
            lossy.call("op", lambda: "x")
        clean = ControlChannel("t", injector=NeverDrop())
        assert clean.call("op", lambda: "x") == "x"


class TestBackoff:
    def test_deterministic_across_channels(self):
        a = ControlChannel("same", down_fn=lambda: True)
        b = ControlChannel("same", down_fn=lambda: True)
        for chan in (a, b):
            with pytest.raises(RetryExhausted):
                chan.call("op", lambda: None)
        assert a.stats.backoff_time == b.stats.backoff_time

    def test_bounded_exponential_shape(self):
        class NoJitterRng:
            def random(self):
                return 0.0

        rng = NoJitterRng()
        # 50 ms x 2^n, capped at 1 s
        assert backoff(0, rng) == pytest.approx(0.05)
        assert backoff(1, rng) == pytest.approx(0.1)
        assert backoff(4, rng) == pytest.approx(0.8)
        assert backoff(5, rng) == pytest.approx(1.0)  # capped
        assert backoff(9, rng) == pytest.approx(1.0)

    def test_jitter_stays_within_fraction(self):
        class MaxJitterRng:
            def random(self):
                return 0.999999

        assert backoff(0, MaxJitterRng()) < 0.05 * 1.1 + 1e-9


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        chan = ControlChannel("t", down_fn=lambda: True, clock=clock)
        breaker = chan.breaker
        for _ in range(rpc.BREAKER_THRESHOLD - 1):
            with pytest.raises(RetryExhausted):
                chan.call("op", lambda: None)
        assert breaker.state == "closed"
        with pytest.raises(RetryExhausted):
            chan.call("op", lambda: None)
        assert breaker.state == "open"
        # while open: rejected instantly, no attempts burned
        drops_before = chan.stats.drops
        with pytest.raises(ControlPlaneUnavailable):
            chan.call("op", lambda: None)
        assert chan.stats.rejected == 1
        assert chan.stats.drops == drops_before

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        down = [True]
        chan = ControlChannel("t", down_fn=lambda: bool(down), clock=clock)
        breaker = chan.breaker
        for _ in range(rpc.BREAKER_THRESHOLD):
            with pytest.raises(RetryExhausted):
                chan.call("op", lambda: None)
        assert breaker.state == "open"
        clock.t = rpc.BREAKER_RESET_AFTER
        assert breaker.state == "half-open"
        down.clear()  # endpoint healed; the probe succeeds
        assert chan.call("op", lambda: "ok") == "ok"
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        chan = ControlChannel("t", down_fn=lambda: True, clock=clock)
        breaker = chan.breaker
        for _ in range(rpc.BREAKER_THRESHOLD):
            with pytest.raises(RetryExhausted):
                chan.call("op", lambda: None)
        clock.t = 1.5 * rpc.BREAKER_RESET_AFTER
        with pytest.raises(RetryExhausted):  # half-open probe fails
            chan.call("op", lambda: None)
        assert breaker.state == "open"
        assert breaker.times_opened == 2

    def test_channel_reset_restores_pristine_state(self):
        chan = ControlChannel("t", down_fn=lambda: True)
        with pytest.raises(RetryExhausted):
            chan.call("op", lambda: None)
        chan.reset()
        assert chan.stats.calls == 0
        assert chan.breaker.state == "closed"
