"""Unit tests for the token-bucket rate limiter."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.util import TokenBucket


class TestBasics:
    def test_initial_burst_available(self):
        tb = TokenBucket(rate=10.0, burst=5.0)
        assert tb.admit(0.0, cost=5.0)

    def test_empty_bucket_rejects(self):
        tb = TokenBucket(rate=10.0, burst=5.0)
        assert tb.admit(0.0, cost=5.0)
        assert not tb.admit(0.0, cost=0.1)

    def test_refill_over_time(self):
        tb = TokenBucket(rate=10.0, burst=5.0)
        assert tb.admit(0.0, cost=5.0)
        assert not tb.admit(0.1, cost=2.0)  # only 1 token refilled
        assert tb.admit(0.2, cost=2.0)      # 2 tokens refilled

    def test_refill_caps_at_burst(self):
        tb = TokenBucket(rate=100.0, burst=5.0)
        assert tb.peek(1000.0) == 5.0

    def test_rejection_consumes_nothing(self):
        tb = TokenBucket(rate=0.0, burst=4.0)
        assert not tb.admit(0.0, cost=5.0)
        assert tb.admit(0.0, cost=4.0)

    def test_counters(self):
        tb = TokenBucket(rate=1.0, burst=1.0)
        tb.admit(0.0)
        tb.admit(0.0)
        assert tb.admitted == 1
        assert tb.rejected == 1

    def test_time_moving_backwards_is_clamped(self):
        tb = TokenBucket(rate=10.0, burst=10.0)
        assert tb.admit(5.0, cost=10.0)
        # a stale timestamp must not mint tokens or crash
        assert not tb.admit(4.0, cost=5.0)

    def test_reset(self):
        tb = TokenBucket(rate=1.0, burst=3.0)
        tb.admit(0.0, cost=3.0)
        tb.reset()
        assert tb.admitted == 0
        assert tb.peek(0.0) == 3.0

    @pytest.mark.parametrize("rate,burst", [
        (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
        # NaN compares False with everything; inf is no rate at all
        (float("nan"), 1.0), (1.0, float("nan")),
        (float("inf"), 1.0), (1.0, float("inf")),
    ])
    def test_invalid_parameters_rejected(self, rate, burst):
        with pytest.raises(ReproError):
            TokenBucket(rate=rate, burst=burst)


class TestConformance:
    """Long-run admitted volume never exceeds burst + rate * elapsed."""

    @given(
        rate=st.floats(min_value=0.1, max_value=1e4),
        burst=st.floats(min_value=0.1, max_value=1e4),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),   # inter-arrival
                st.floats(min_value=0.01, max_value=100.0)  # cost
            ),
            min_size=1, max_size=200,
        ),
    )
    def test_admitted_volume_bounded(self, rate, burst, steps):
        tb = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        admitted_volume = 0.0
        for dt, cost in steps:
            now += dt
            if tb.admit(now, cost=cost):
                admitted_volume += cost
        assert admitted_volume <= burst + rate * now + 1e-6

    @given(rate=st.floats(min_value=1.0, max_value=100.0))
    def test_steady_rate_always_admitted(self, rate):
        """Traffic at exactly the token rate is never rejected."""
        tb = TokenBucket(rate=rate, burst=rate)
        for i in range(1, 100):
            assert tb.admit(i * 1.0, cost=rate)


class TestProperties:
    """Refill monotonicity, burst cap, and admit cost accounting."""

    @given(
        rate=st.floats(min_value=0.1, max_value=1e3),
        burst=st.floats(min_value=0.5, max_value=1e3),
        times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=2, max_size=50),
    )
    def test_refill_monotone_and_burst_capped(self, rate, burst, times):
        """With no admissions in between, the level only refills — peek at
        non-decreasing times is non-decreasing and never exceeds burst."""
        tb = TokenBucket(rate=rate, burst=burst)
        tb.admit(0.0, cost=burst)  # drain so the refill is observable
        last = tb.peek(0.0)
        for t in sorted(times):
            tokens = tb.peek(t)
            assert tokens >= last - 1e-9
            assert tokens <= burst + 1e-9
            last = tokens

    @given(
        rate=st.floats(min_value=0.1, max_value=1e3),
        burst=st.floats(min_value=0.5, max_value=1e3),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),    # inter-arrival
                st.floats(min_value=0.01, max_value=50.0),  # cost
            ),
            min_size=1, max_size=100,
        ),
    )
    def test_admit_cost_accounting(self, rate, burst, steps):
        """Every admit call lands in exactly one counter, and the admitted
        volume plus the remaining level never exceeds what the bucket
        could have held (initial burst + refill)."""
        tb = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        admitted_volume = 0.0
        for dt, cost in steps:
            now += dt
            if tb.admit(now, cost=cost):
                admitted_volume += cost
        assert tb.admitted + tb.rejected == len(steps)
        assert admitted_volume + tb.peek(now) <= burst + rate * now + 1e-6

    @given(
        burst=st.floats(min_value=1.0, max_value=1e3),
        costs=st.lists(st.floats(min_value=0.01, max_value=10.0),
                       min_size=1, max_size=50),
    )
    def test_zero_rate_exact_accounting(self, burst, costs):
        """With no refill the bucket is pure subtraction: the level is
        exactly burst minus the admitted volume, and rejections consume
        nothing."""
        tb = TokenBucket(rate=0.0, burst=burst)
        admitted_volume = 0.0
        for cost in costs:
            if tb.admit(0.0, cost=cost):
                admitted_volume += cost
        assert tb.peek(0.0) == pytest.approx(burst - admitted_volume)
