"""Pass pipeline: structural/vetting parity and the optimization passes."""

import pytest

from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PrefixBlacklist,
    StatisticsCollector,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS, vet_graph
from repro.errors import ComponentGraphError, VettingError
from repro.net import Prefix, Protocol
from repro.policy import Severity, lower_graph
from repro.policy.passes import (
    dead_op_pass,
    fuse_filter_runs,
    reorder_observer_runs,
    structural_pass,
    topo_order,
    vetting_pass,
)


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
            graph.validate()
        assert diags[0].message == str(err.value)
        assert str(err.value) == "graph 'void' is empty"

    def test_cycle_matches_validate(self):
        graph = ComponentGraph("loop")
        graph.chain(*filters("a", "b"))
        graph.connect("b", "a", Verdict.PASS)
        diags = structural_pass(lower_graph(graph))
        assert [d.code for d in diags] == ["structure.cycle"]
        with pytest.raises(ComponentGraphError) as err:
            graph.validate()
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
            graph.validate()
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
            vet_graph(graph)
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
            vet_graph(graph)
        assert diags[0].message == str(err.value)
        assert str(err.value) == (
            "graph 'chatty' aggregates 189000 bit/s of side-channel traffic "
            "(max 128000)")

    def test_clean_graph_passes(self):
        graph = ComponentGraph("fine")
        graph.chain(*filters("a"), LoggerComponent("log"))
        assert vetting_pass(lower_graph(graph)) == []


class TestDeadOpPass:
    def test_op_behind_infeasible_drop_edge_is_dead(self):
        graph = ComponentGraph("g")
        graph.add(StatisticsCollector("stats"))
        graph.add(LoggerComponent("never"))
        # stats can never drop, so its DROP edge can never fire
        graph.connect("stats", "never", Verdict.DROP)
        policy = lower_graph(graph)
        live, diags = dead_op_pass(policy)
        assert live == {policy.op("stats").index}
        assert [d.code for d in diags] == ["opt.dead"]
        assert diags[0].ops == ("never",)
        assert diags[0].severity is Severity.INFO

    def test_feasible_drop_edge_stays_live(self):
        graph = ComponentGraph("g")
        graph.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        graph.add(LoggerComponent("droplog"))
        graph.connect("f", "droplog", Verdict.DROP)
        policy = lower_graph(graph)
        live, diags = dead_op_pass(policy)
        assert live == {0, 1}
        assert diags == []


class TestFuseAndReorder:
    def test_adjacent_filters_fuse(self):
        graph = ComponentGraph("g")
        graph.chain(*filters("a", "b", "c"), LoggerComponent("log"))
        policy = lower_graph(graph)
        live, _ = dead_op_pass(policy)
        order = topo_order(policy, live)
        groups, diags = fuse_filter_runs(policy, order, live)
        assert groups[0] == [0, 1, 2]
        assert [d.code for d in diags] == ["opt.fuse"]

    def test_wired_drop_edge_blocks_fusion(self):
        graph = ComponentGraph("g")
        graph.chain(*filters("a", "b"))
        graph.add(LoggerComponent("droplog"))
        graph.connect("a", "droplog", Verdict.DROP)
        policy = lower_graph(graph)
        live, _ = dead_op_pass(policy)
        groups, diags = fuse_filter_runs(policy, topo_order(policy, live), live)
        # "a" routes drops somewhere, so it cannot merge with "b"
        assert [0] in groups and [1] in groups
        assert diags == []

    def test_observer_run_sinks_scalar_loggers(self):
        graph = ComponentGraph("g")
        graph.chain(LoggerComponent("log"), StatisticsCollector("stats"),
                    PrefixBlacklist("bl", [Prefix.parse("10.0.0.0/8")]))
        policy = lower_graph(graph)
        live, _ = dead_op_pass(policy)
        groups, _ = fuse_filter_runs(policy, topo_order(policy, live), live)
        runs, diags = reorder_observer_runs(policy, groups, live)
        (members, tail), rest = runs[0], runs[1:]
        # stats (OBSERVER_BATCH) scheduled before log, but the run still
        # exits through log's PASS edge (the original chain tail)
        assert members == [policy.op("stats").index, policy.op("log").index]
        assert tail == policy.op("stats").index
        assert [d.code for d in diags] == ["opt.reorder"]
        assert rest == [([policy.op("bl").index], policy.op("bl").index)]
