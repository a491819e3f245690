"""Unit tests for WindowedCounter."""

from hypothesis import given, strategies as st

from repro.util import WindowedCounter


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
