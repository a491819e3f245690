"""Core telemetry semantics: instruments, families, registry views."""

import json

import pytest

from repro.errors import MetricError
from repro.obs import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    declare,
    get_registry,
    scoped,
    snapshot_delta,
)


class TestInstruments:
    def test_counter_inc_and_direct_value(self):
        c = Counter()
        c.inc()
        c.inc(4)
        c.value += 1  # the hot-path idiom
        assert c.get() == 6
        c.reset()
        assert c.get() == 0

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.inc()
        assert g.get() == 11
        g.set(7)
        assert g.get() == 7

    def test_histogram_buckets_sum_count(self):
        h = Histogram(bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        got = h.get()
        assert got["buckets"] == {"le_1": 1, "le_2": 1, "le_inf": 1}
        assert got["count"] == 3
        assert got["sum"] == pytest.approx(101.0)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(MetricError):
            Histogram(bounds=(2.0, 1.0))


class TestFamilies:
    def test_same_labels_return_same_child(self):
        reg = MetricRegistry()
        a = reg.counter("x.hits", link="l1")
        b = reg.counter("x.hits", link="l1")
        assert a is b

    def test_fresh_replaces_the_child(self):
        reg = MetricRegistry()
        a = reg.counter("x.hits", link="l1")
        a.inc(5)
        b = reg.family("x.hits", "counter", ("link",)).labelled(
            fresh=True, link="l1")
        assert b is not a
        assert b.get() == 0
        assert reg.snapshot() == {"x.hits{link=l1}": 0}

    def test_label_cardinality_guard(self):
        reg = MetricRegistry()
        family = reg.family("x.leak", "counter", ("pkt",), max_series=3)
        for i in range(3):
            family.labelled(pkt=str(i))
        with pytest.raises(MetricError, match="cardinality"):
            family.labelled(pkt="3")
        # existing series stay reachable after the guard trips
        assert family.labelled(pkt="0") is family.labelled(pkt="0")

    def test_wrong_label_names_raise(self):
        reg = MetricRegistry()
        with pytest.raises(MetricError, match="takes labels"):
            reg.family("x.hits", "counter", ("link",)).labelled(device="d1")

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("x.hits")
        with pytest.raises(MetricError, match="conflicting"):
            reg.gauge("x.hits")


class TestDeclarations:
    def test_declare_is_idempotent_and_conflicts_raise(self):
        a = declare("test.obs.decl", "counter", labels=("k",))
        b = declare("test.obs.decl", "counter", labels=("k",))
        assert a is b
        assert CATALOG["test.obs.decl"] is a
        with pytest.raises(MetricError, match="already declared"):
            declare("test.obs.decl", "gauge", labels=("k",))

    def test_decl_resolves_against_the_ambient_registry(self):
        decl = declare("test.obs.ambient", "counter")
        with scoped() as reg:
            inner = decl.labelled()
            inner.inc(3)
            assert reg.snapshot() == {"test.obs.ambient": 3}
        # outside the scope, the default registry is untouched
        assert "test.obs.ambient" not in get_registry().snapshot()


class TestSnapshots:
    def test_snapshot_keys_are_sorted_and_labelled(self):
        reg = MetricRegistry()
        reg.counter("b.count").inc(2)
        reg.counter("a.count", link="l2").inc()
        reg.counter("a.count", link="l1").inc(7)
        snap = reg.snapshot()
        assert list(snap) == ["a.count{link=l1}", "a.count{link=l2}", "b.count"]
        assert snap["a.count{link=l1}"] == 7

    def test_delta_since_an_earlier_snapshot(self):
        reg = MetricRegistry()
        c = reg.counter("x.hits")
        c.inc(2)
        before = reg.snapshot()
        c.inc(3)
        reg.counter("x.new").inc()  # appears after `before`: counts from 0
        assert reg.delta(before) == {"x.hits": 3, "x.new": 1}

    def test_delta_diffs_histograms_per_field(self):
        before = {"h": {"buckets": {"le_1": 1, "le_inf": 0}, "sum": 0.5,
                        "count": 1}}
        after = {"h": {"buckets": {"le_1": 1, "le_inf": 2}, "sum": 9.5,
                       "count": 3}}
        assert snapshot_delta(before, after) == {
            "h": {"buckets": {"le_1": 0, "le_inf": 2}, "sum": 9.0, "count": 2}}

    def test_timers_stay_out_of_the_deterministic_snapshot(self):
        reg = MetricRegistry()
        reg.counter("x.hits").inc()
        with reg.span("x.elapsed"):
            pass
        assert list(reg.snapshot()) == ["x.hits"]
        timings = reg.timings()
        assert list(timings) == ["x.elapsed"]
        assert timings["x.elapsed"]["count"] == 1

    def test_span_accepts_a_simulated_clock(self):
        reg = MetricRegistry()
        ticks = iter([2.0, 5.5])
        with reg.span("x.sim", clock=lambda: next(ticks)):
            pass
        assert reg.timings()["x.sim"] == {"count": 1, "total_s": 3.5}

    def test_prefix_reset(self):
        reg = MetricRegistry()
        reg.counter("a.one").inc(4)
        reg.counter("b.two").inc(9)
        assert reg.reset(prefix="a.") == 1
        assert reg.snapshot() == {"a.one": 0, "b.two": 9}

    def test_jsonl_round_trips(self):
        reg = MetricRegistry()
        reg.counter("x.hits", link="l1").inc(3)
        with reg.span("x.elapsed"):
            pass
        rows = [json.loads(line) for line in reg.to_jsonl().splitlines()]
        assert {r["name"] for r in rows} == {"x.hits", "x.elapsed"}
        hit = next(r for r in rows if r["name"] == "x.hits")
        assert hit == {"kind": "counter", "labels": {"link": "l1"},
                       "name": "x.hits", "value": 3}


class TestScoping:
    def test_nested_scopes_isolate(self):
        with scoped() as outer:
            get_registry().counter("x.depth").inc()
            with scoped() as inner:
                get_registry().counter("x.depth").inc(10)
            assert inner.snapshot() == {"x.depth": 10}
            assert outer.snapshot() == {"x.depth": 1}

    def test_scoped_accepts_an_existing_registry(self):
        mine = MetricRegistry("mine")
        with scoped(mine) as reg:
            assert reg is mine
            assert get_registry() is mine
        assert get_registry() is not mine
