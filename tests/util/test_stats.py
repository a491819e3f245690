"""Unit tests for OnlineStats and WindowedCounter."""

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.util import OnlineStats, WindowedCounter


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_simple_sequence(self):
        s = OnlineStats()
        for x in (1.0, 2.0, 3.0, 4.0):
            s.add(x)
        assert s.mean == 2.5
        assert s.min == 1.0
        assert s.max == 4.0
        assert math.isclose(s.variance, np.var([1, 2, 3, 4], ddof=1))

    @given(xs=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        assert math.isclose(s.mean, float(np.mean(xs)), rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(s.variance, float(np.var(xs, ddof=1)), rel_tol=1e-6, abs_tol=1e-3)

    @given(
        xs=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
        ys=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50),
    )
    def test_merge_equals_concatenation(self, xs, ys):
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        for x in xs:
            a.add(x)
            c.add(x)
        for y in ys:
            b.add(y)
            c.add(y)
        a.merge(b)
        assert a.n == c.n
        assert math.isclose(a.mean, c.mean, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(a.variance, c.variance, rel_tol=1e-6, abs_tol=1e-6)

    def test_merge_with_empty(self):
        a, b = OnlineStats(), OnlineStats()
        a.add(5.0)
        a.merge(b)
        assert a.n == 1 and a.mean == 5.0
        b.merge(a)
        assert b.n == 1 and b.mean == 5.0


class TestWindowedCounter:
    def test_events_inside_window_counted(self):
        w = WindowedCounter(window=1.0)
        w.add(0.0)
        w.add(0.5)
        assert w.total(0.9) == 2.0

    def test_events_expire(self):
        w = WindowedCounter(window=1.0)
        w.add(0.0)
        w.add(0.5)
        assert w.total(1.4) == 1.0
        assert w.total(2.0) == 0.0

    def test_weights(self):
        w = WindowedCounter(window=10.0)
        w.add(0.0, weight=100.0)
        w.add(1.0, weight=50.0)
        assert w.total(5.0) == 150.0
        assert w.rate(5.0) == 15.0

    def test_len_tracks_live_events(self):
        w = WindowedCounter(window=1.0)
        for t in (0.0, 0.2, 0.4):
            w.add(t)
        w.total(1.1)  # cutoff 0.1: events at 0.2 and 0.4 remain
        assert len(w) == 2

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(min_value=0.0, max_value=0.5),
                              st.integers(min_value=0, max_value=1500)),
                    max_size=200),
           st.sampled_from([0.0, 0.25, 1.0]))
    def test_running_sum_matches_naive_sum(self, steps, window):
        """``total``/``rate`` equal the sum over every event still inside
        the window, for any interleaving of adds and queries."""
        w = WindowedCounter(window=window)
        events: list[tuple[float, int]] = []
        now = 0.0
        for is_add, dt, weight in steps:
            now += dt
            if is_add:
                w.add(now, weight)
                events.append((now, weight))
                continue
            naive = sum(wt for t, wt in events if t >= now - window)
            assert w.total(now) == naive
            assert w.rate(now) == (naive / window if window > 0 else 0.0)
            assert len(w) == sum(1 for t, _ in events if t >= now - window)

