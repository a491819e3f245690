"""Pass pipeline: each pass's first error is what ``compile_policy`` raises."""

import pytest

from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS
from repro.errors import ComponentGraphError, VettingError
from repro.net import Protocol
from repro.policy import compile_policy, lower_graph
from repro.policy.passes import structural_pass, vetting_pass


def filters(*names: str) -> list[HeaderFilter]:
    return [HeaderFilter(n, HeaderMatch(proto=Protocol.UDP)) for n in names]


class TestStructuralPass:
    def test_clean_graph_has_no_diagnostics(self):
        graph = ComponentGraph("ok")
        graph.chain(*filters("a", "b"))
        assert structural_pass(lower_graph(graph)) == []

    def test_empty_matches_validate(self):
        graph = ComponentGraph("void")
        diags = structural_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["structure.empty"]
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == "graph 'void' is empty"

    def test_cycle_matches_validate(self):
        graph = ComponentGraph("loop")
        graph.chain(*filters("a", "b"))
        graph.connect("b", "a", Verdict.PASS)
        diags = structural_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["structure.cycle"]
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == "graph 'loop' has a cycle through 'a'"

    def test_unreachable_matches_validate(self):
        graph = ComponentGraph("island")
        graph.chain(*filters("a", "b"))
        graph.add(LoggerComponent("stranded"))
        diags = structural_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["structure.unreachable"]
        assert diags[0].ops == ("stranded",)
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == (
            "graph 'island': unreachable components ['stranded']")


class TestVettingPass:
    def test_component_violation_matches_vet_graph(self):
        class TtlRewriter(Component):
            capabilities = Capabilities(modifies_headers=frozenset({"ttl"}))

            def process(self, packet, ctx):
                return Verdict.PASS

        graph = ComponentGraph("bad")
        graph.chain(TtlRewriter("evil"))
        diags = vetting_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["vet.component"]
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == (
            "component 'evil' declares writes to forbidden header fields "
            "['ttl'] (Sec. 4.5)")

    def test_aggregate_cap_matches_vet_graph(self):
        class Chatty(Component):
            # individually under the per-component cap, so only the
            # graph-level 2x aggregate check can reject the chain
            capabilities = Capabilities(
                extra_traffic_bps=MAX_EXTRA_TRAFFIC_BPS - 1_000.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        graph = ComponentGraph("chatty")
        graph.chain(Chatty("t1"), Chatty("t2"), Chatty("t3"))
        diags = vetting_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["vet.aggregate"]
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == (
            "graph 'chatty' aggregates 189000 bit/s of side-channel traffic "
            "(max 128000)")

    def test_clean_graph_passes(self):
        graph = ComponentGraph("fine")
        graph.chain(*filters("a"), LoggerComponent("log"))
        assert vetting_pass(lower_graph(graph)) == []
