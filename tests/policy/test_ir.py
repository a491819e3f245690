"""Lowering component graphs into the typed policy IR."""

from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PayloadHashFilter,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    StatisticsCollector,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.net import Prefix, Protocol
from repro.policy import OpKind, lower_graph
from repro.policy.ir import classify


class TestClassify:
    def test_known_components(self):
        cases = [
            (HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)), OpKind.FILTER),
            (PrefixBlacklist("b", [Prefix.parse("10.0.0.0/8")]),
             OpKind.BLACKLIST),
            (SourceAntiSpoof("a", [Prefix.parse("10.0.0.0/8")]),
             OpKind.ANTISPOOF),
            (RateLimiterComponent("r", 1e6), OpKind.RATE_LIMIT),
            (LoggerComponent("l"), OpKind.LOGGER),
            (StatisticsCollector("s"), OpKind.OPAQUE),
            (PayloadScrubber("p"), OpKind.SCRUB),
            (PayloadHashFilter("h", [b"\x00" * 8]), OpKind.HASH_FILTER),
        ]
        for component, kind in cases:
            assert classify(component) is kind, component.name

    def test_unknown_component_is_opaque(self):
        class Custom(Component):
            capabilities = Capabilities(may_drop=True)

            def process(self, packet, ctx):
                return Verdict.PASS

        assert classify(Custom("x")) is OpKind.OPAQUE


class TestLowerGraph:
    def build(self) -> ComponentGraph:
        graph = ComponentGraph("g")
        graph.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        graph.add(LoggerComponent("log"))
        graph.add(LoggerComponent("droplog"))
        graph.connect("f", "log", Verdict.PASS)
        graph.connect("f", "droplog", Verdict.DROP)
        return graph

    def test_ops_and_edges(self):
        policy = lower_graph(self.build())
        assert policy.name == "g"
        assert len(policy) == 3
        assert policy.entry == 0
        f, log, droplog = policy.ops
        assert (f.name, log.name, droplog.name) == ("f", "log", "droplog")
        assert f.pass_to == log.index
        assert f.drop_to == droplog.index
        assert log.pass_to is None and log.drop_to is None
        # edge_list preserves connect() insertion order
        assert policy.edge_list == [(0, Verdict.PASS, 1), (0, Verdict.DROP, 2)]

    def test_live_component_references(self):
        graph = self.build()
        policy = lower_graph(graph)
        assert policy.op("f").component is graph.component("f")

    def test_may_drop_follows_capabilities(self):
        policy = lower_graph(self.build())
        assert policy.op("f").may_drop
        assert not policy.op("log").may_drop
