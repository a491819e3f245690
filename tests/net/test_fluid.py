"""Tests for the fluid (flow-level) network model."""

from typing import Optional, Sequence

import pytest

from repro.errors import RoutingError, TopologyError
from repro.net import Flow, FlowSet, FluidNetwork, TopologyBuilder


class BlockAtAS:
    """Test filter: pass fraction `keep` for matching flows at one AS."""

    def __init__(self, asn, keep=0.0, kind=None):
        self.asn = asn
        self.keep = keep
        self.kind = kind

    def pass_fraction(self, flow: Flow, asn: int, prev_asn: Optional[int],
                      pos: int, path: Sequence[int]) -> float:
        if asn == self.asn and (self.kind is None or flow.kind == self.kind):
            return self.keep
        return 1.0


class TestPaths:
    def test_path_matches_line(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        assert fn.path(0, 3) == [0, 1, 2, 3]
        assert fn.path(3, 0) == [3, 2, 1, 0]
        assert fn.path(2, 2) == [2]

    def test_distance(self):
        fn = FluidNetwork(TopologyBuilder.line(5))
        assert fn.distance(0, 4) == 4
        assert fn.distance(4, 4) == 0

    def test_unknown_as(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        with pytest.raises(Exception):
            fn.path(0, 99)
        with pytest.raises(RoutingError, match="AS 99 unreachable from AS 0"):
            fn.distance(99, 0)
        with pytest.raises(TopologyError, match="unknown AS 99"):
            fn.distance(0, 99)

    def test_expected_ingress(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        assert fn.expected_ingress(2, 0) == frozenset({1})
        assert fn.expected_ingress(2, 3) == frozenset({3})
        assert fn.expected_ingress(2, 99) == frozenset()


class TestEvaluate:
    def test_unfiltered_uncongested_delivers_everything(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6), Flow(3, 0, 2e6)])
        r = fn.evaluate(flows)
        assert r.delivered_rate() == pytest.approx(3e6)
        assert r.survival_fraction("legit") == pytest.approx(1.0)

    def test_filter_removes_traffic(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6, kind="attack"), Flow(3, 0, 1e6, kind="legit")])
        r = fn.evaluate(flows, filters=[BlockAtAS(1, keep=0.0, kind="attack")])
        assert r.survival_fraction("attack") == 0.0
        assert r.survival_fraction("legit") == 1.0

    def test_partial_filters_compose_multiplicatively(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        flows = FlowSet([Flow(0, 3, 1e6)])
        r = fn.evaluate(flows, filters=[BlockAtAS(1, keep=0.5), BlockAtAS(2, keep=0.5)])
        assert r.survival_fraction("legit") == pytest.approx(0.25)

    def test_congestion_scales_down(self):
        fn = FluidNetwork(TopologyBuilder.line(3),
                          capacity_fn=lambda a, b: 1e6)
        flows = FlowSet([Flow(0, 2, 4e6)])
        r = fn.evaluate(flows)
        assert r.delivered_rate() == pytest.approx(1e6, rel=0.01)
        assert float(r.congestion_lost.sum()) == pytest.approx(3e6, rel=0.01)

    def test_congestion_shared_proportionally(self):
        fn = FluidNetwork(TopologyBuilder.line(3), capacity_fn=lambda a, b: 1e6)
        flows = FlowSet([Flow(0, 2, 3e6, kind="attack"), Flow(0, 2, 1e6, kind="legit")])
        r = fn.evaluate(flows)
        assert r.delivered_rate("attack") == pytest.approx(0.75e6, rel=0.02)
        assert r.delivered_rate("legit") == pytest.approx(0.25e6, rel=0.02)

    def test_congestion_disabled(self):
        fn = FluidNetwork(TopologyBuilder.line(3), capacity_fn=lambda a, b: 1e6)
        r = fn.evaluate(FlowSet([Flow(0, 2, 4e6)]), congestion=False)
        assert r.delivered_rate() == pytest.approx(4e6)
        assert r.link_load[(0, 1)] == pytest.approx(4e6)

    def test_byte_hops(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        r = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]))
        assert r.byte_hops["x"] == pytest.approx(3e6)  # 3 links at full rate

    def test_byte_hops_shrink_with_early_filtering(self):
        fn = FluidNetwork(TopologyBuilder.line(4))
        late = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]),
                           filters=[BlockAtAS(3)])
        early = fn.evaluate(FlowSet([Flow(0, 3, 1e6, kind="x")]),
                            filters=[BlockAtAS(0)])
        assert early.byte_hops["x"] == 0.0
        assert late.byte_hops["x"] == pytest.approx(3e6)

    def test_drop_distance(self):
        fn = FluidNetwork(TopologyBuilder.line(5))
        r = fn.evaluate(FlowSet([Flow(0, 4, 1e6, kind="x")]), filters=[BlockAtAS(2)])
        assert r.drop_distance["x"] == pytest.approx(2.0)

    def test_link_load_accumulates_across_flows(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        flows = FlowSet([Flow(0, 2, 1e6), Flow(0, 2, 2e6)])
        r = fn.evaluate(flows)
        assert r.link_load[(0, 1)] == pytest.approx(3e6)
        assert r.link_load[(1, 2)] == pytest.approx(3e6)

    def test_local_flow_has_no_links(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        r = fn.evaluate(FlowSet([Flow(1, 1, 1e6)]))
        assert r.delivered_rate() == pytest.approx(1e6)
        assert r.link_load == {}

    def test_empty_flowset(self):
        fn = FluidNetwork(TopologyBuilder.line(3))
        r = fn.evaluate(FlowSet())
        assert r.delivered_rate() == 0.0
        assert r.survival_fraction("legit") == 0.0


class TestFlowSemantics:
    def test_spoofed_flag(self):
        assert Flow(0, 1, 1.0, claimed_src_asn=2).spoofed
        assert not Flow(0, 1, 1.0).spoofed
        assert not Flow(0, 1, 1.0, claimed_src_asn=0).spoofed

    def test_source_address_asn(self):
        assert Flow(0, 1, 1.0).source_address_asn == 0
        assert Flow(0, 1, 1.0, claimed_src_asn=5).source_address_asn == 5

    def test_flowset_helpers(self):
        fs = FlowSet([Flow(0, 1, 1.0, kind="a"), Flow(0, 1, 2.0, kind="b")])
        fs.add(Flow(0, 1, 4.0, kind="a"))
        assert fs.total_rate() == 7.0
        assert fs.total_rate("a") == 5.0
        assert set(fs.by_kind()) == {"a", "b"}
        assert len(fs) == 3
