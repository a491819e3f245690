"""Unit tests for the discrete-event simulator."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.net import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "late")
        sim.schedule(1.0, out.append, "early")
        sim.run()
        assert out == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def outer():
            out.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            out.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert out == [("outer", 1.0), ("inner", 2.0)]

    def test_cancel(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        ev.cancel()
        sim.run()
        assert out == []

    def test_run_until_stops_clock(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(5.0, out.append, "b")
        sim.run(until=2.0)
        assert out == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert out == ["a", "b"]

    def test_run_max_events(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(float(i + 1), out.append, i)
        n = sim.run(max_events=3)
        assert n == 3
        assert out == [0, 1, 2]

    def test_run_with_no_events_sets_until(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0

    def test_reset_restarts_seq_tiebreaker(self):
        """A reset simulator must be bit-for-bit identical to a fresh one,
        including the seq values it assigns (regression: ``_seq`` used to
        keep counting across resets)."""
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        ev = sim.schedule(1.0, lambda: None)
        fresh_ev = Simulator().schedule(1.0, lambda: None)
        assert ev.seq == fresh_ev.seq == 0

    def test_reset_then_replay_matches_fresh(self):
        def fill(sim, out):
            for i in range(4):
                sim.schedule(1.0, out.append, i)
            sim.schedule(0.5, out.append, "first")
            sim.run()

        fresh_out: list = []
        fill(Simulator(), fresh_out)
        reused = Simulator()
        fill(reused, [])
        reused.reset()
        reused_out: list = []
        fill(reused, reused_out)
        assert reused_out == fresh_out


class TestPeriodic:
    def test_schedule_every(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_schedule_every_stops_on_false(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            return len(ticks) < 3

        sim.schedule_every(1.0, tick)
        sim.run()
        assert len(ticks) == 3

    def test_bad_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_every(0.0, lambda: None)

    def test_cancel_after_first_tick_stops_recurrence(self):
        """Regression: the handle used to be the first firing's event, so
        cancelling it after that firing did nothing."""
        sim = Simulator()
        ticks = []
        handle = sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        handle.cancel()
        sim.run(until=6)
        assert ticks == [1.0, 2.0]
        assert sim.pending == 0

    def test_cancel_from_inside_the_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                handle.cancel()

        handle = sim.schedule_every(1.0, tick)
        sim.run(until=10)
        assert ticks == [1.0, 2.0]


class TestHeapCompaction:
    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
        for ev in events[:900]:
            ev.cancel()
        # tombstones swept once they dominate, without waiting for pop time
        assert sim.pending < 1000

    def test_compaction_preserves_ordering(self):
        sim = Simulator()
        out = []
        events = [sim.schedule(float(i % 7), out.append, i) for i in range(500)]
        keep = {i for i in range(500) if i % 3 == 0}
        for i, ev in enumerate(events):
            if i not in keep:
                ev.cancel()
        sim.run()
        expected = sorted(keep, key=lambda i: (float(i % 7), i))
        assert out == expected

    def test_cancel_during_run_is_safe(self):
        sim = Simulator()
        out = []
        later = [sim.schedule(2.0 + i * 1e-6, out.append, i) for i in range(200)]

        def cancel_most():
            for ev in later[:190]:
                ev.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert out == list(range(190, 200))

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim._cancelled == {ev.seq}
        assert sim._m_cancelled.value == 1
        sim.run()
        assert sim._cancelled == set()


class TestCancelHandles:
    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        ev.cancel()
        assert sim._cancelled == set()
        assert sim._m_cancelled.value == 0
        assert sim.run() == 1

    def test_stale_handle_cannot_cancel_reused_seq(self):
        sim = Simulator()
        old = sim.schedule(1.0, lambda: None)
        sim.reset()
        out = []
        new = sim.schedule(1.0, out.append, "new")
        assert (new.time, new.seq) == (old.time, old.seq)
        old.cancel()
        sim.run()
        assert out == ["new"]


#: Heap operations: schedule (delay, index of a handle the callback cancels
#: when it fires, or None), cancel a handle, run to now + dt, compact, reset.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 1.0, 2.5]),
              st.one_of(st.none(), st.integers(0, 40))),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.7, 1.0, 3.0])),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reset")),
), max_size=60)


class TestHeapProperty:
    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS)
    # a second cancel after compaction swept the first tombstone
    @example(ops=[("schedule", 0.0, None), ("schedule", 0.0, None),
                  ("cancel", 1), ("compact",), ("cancel", 1)])
    def test_exactly_uncancelled_events_fire_in_order(self, ops):
        """The simulator against a sorted-list oracle: every uncancelled
        event fires once, in (time, seq) order, and cancelled ones never
        do — also when a firing callback cancels another event, across
        compactions, and with handles that outlived a reset."""
        sim = Simulator()
        handles = []       # every handle ever returned, in schedule order
        live = {}          # oracle: handle index -> (time, seq), pending only
        victims = {}       # handle index -> handle index its callback cancels
        fired, expected = [], []

        def fire(i):
            fired.append(i)
            if victims.get(i) is not None and victims[i] < len(handles):
                handles[victims[i]].cancel()

        def oracle_run(until):
            while live:
                i = min(live, key=live.get)
                if live[i][0] > until:
                    break
                del live[i]
                expected.append(i)
                j = victims.get(i)
                if j is not None:
                    live.pop(j, None)

        for op in ops:
            if op[0] == "schedule":
                i = len(handles)
                handles.append(sim.schedule(op[1], fire, i))
                live[i] = (handles[i].time, handles[i].seq)
                victims[i] = op[2]
            elif op[0] == "cancel" and handles:
                i = op[1] % len(handles)
                handles[i].cancel()
                live.pop(i, None)
            elif op[0] == "run":
                until = sim.now + op[1]
                oracle_run(until)
                sim.run(until=until)
            elif op[0] == "compact":
                sim._compact()
                assert sim.pending == len(live)
            elif op[0] == "reset":
                sim.reset()
                live.clear()
                assert sim._cancelled == set() and sim.pending == 0
            assert fired == expected
        oracle_run(float("inf"))
        sim.run()
        assert fired == expected
        assert sim._cancelled == set() and sim.pending == 0


class TestDeterminism:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_replay_identical(self, delays):
        def run_once():
            sim = Simulator()
            out = []
            for i, d in enumerate(delays):
                sim.schedule(d, out.append, (d, i))
            sim.run()
            return out

        assert run_once() == run_once()

    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_fire_times_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
