"""Lowering component graphs into the typed policy IR."""

from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.net import Protocol
from repro.policy import lower_graph


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
        assert ([id(op.component) for op in policy.ops]
                == [id(c) for c in graph.components()])
