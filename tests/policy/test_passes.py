"""``problems()`` lists every finding as the exception ``compile_policy``
raises for the first of them."""

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
from repro.policy import compile_policy, problems


def filters(*names: str) -> list[HeaderFilter]:
    return [HeaderFilter(n, HeaderMatch(proto=Protocol.UDP)) for n in names]


class TestStructuralPass:
    def test_clean_graph_has_no_diagnostics(self):
        graph = ComponentGraph("ok")
        graph.chain(*filters("a", "b"))
        assert problems(graph) == []

    def test_empty_matches_validate(self):
        graph = ComponentGraph("void")
        found = problems(graph)
        assert [type(d) for d in found] == [ComponentGraphError]
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert str(found[0]) == str(err.value)
        assert str(err.value) == "graph 'void' is empty"

    def test_cycle_matches_validate(self):
        graph = ComponentGraph("loop")
        graph.chain(*filters("a", "b"))
        graph.connect("b", "a", Verdict.PASS)
        found = problems(graph)
        assert [type(d) for d in found] == [ComponentGraphError]
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert str(found[0]) == str(err.value)
        assert str(err.value) == "graph 'loop' has a cycle through 'a'"

    def test_unreachable_matches_validate(self):
        graph = ComponentGraph("island")
        graph.chain(*filters("a", "b"))
        graph.add(LoggerComponent("stranded"))
        found = problems(graph)
        assert [type(d) for d in found] == [ComponentGraphError]
        with pytest.raises(ComponentGraphError) as err:
            compile_policy(graph)
        assert str(found[0]) == str(err.value)
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
        found = problems(graph)
        assert [type(d) for d in found] == [VettingError]
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert str(found[0]) == str(err.value)
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
        found = problems(graph)
        assert [type(d) for d in found] == [VettingError]
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert str(found[0]) == str(err.value)
        assert str(err.value) == (
            "graph 'chatty' aggregates 189000 bit/s of side-channel traffic "
            "(max 128000)")

    def test_every_violation_is_listed_in_order(self):
        """Each bad component, then the blown aggregate budget; the
        first finding is what ``compile_policy`` raises."""
        class Chatty(Component):
            capabilities = Capabilities(
                modifies_headers=frozenset({"ttl"}),
                extra_traffic_bps=MAX_EXTRA_TRAFFIC_BPS - 1_000.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        graph = ComponentGraph("worse")
        graph.chain(Chatty("t1"), Chatty("t2"), Chatty("t3"))
        found = problems(graph)
        assert [type(p) for p in found] == [VettingError] * 4
        assert ["'t1'" in str(found[0]), "'t2'" in str(found[1]),
                "'t3'" in str(found[2])] == [True] * 3
        assert str(found[3]).startswith("graph 'worse' aggregates ")
        with pytest.raises(VettingError) as err:
            compile_policy(graph)
        assert str(err.value) == str(found[0])

    def test_clean_graph_passes(self):
        graph = ComponentGraph("fine")
        graph.chain(*filters("a"), LoggerComponent("log"))
        assert problems(graph) == []
