"""A compiled program's view of its graph: ops in insertion order, the
PASS/DROP edge arrays and the live components."""

from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.net import Protocol
from repro.policy import compile_policy


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
        compiled = compile_policy(self.build())
        assert compiled.graph.name == "g"
        assert [c.name for c in compiled.components] == ["f", "log", "droplog"]
        plan = compiled._plan
        assert plan.entry == 0
        # f passes to log and drops to droplog; both loggers exit
        assert plan.pass_next == [1, -1, -1]
        assert plan.drop_next == [2, -1, -1]

    def test_live_component_references(self):
        graph = self.build()
        compiled = compile_policy(graph)
        assert ([id(c) for c in compiled.components]
                == [id(c) for c in graph.components()])
