"""CAIDA as-rel2 parsing, the synthetic generator, and the committed
fixture (tests/net/data/as-rel2-small.txt — synthetic, serial-2 shaped;
see the header comments it carries)."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.net import (
    ASRole,
    FluidNetwork,
    Network,
    Packet,
    TopologyBuilder,
    parse_as_rel2,
    synthesize_as_rel2,
)
from repro.net.fluid import flood_flows
from repro.scenario.spec import TopologySpec
from repro.util.rng import derive_rng

FIXTURE = Path(__file__).parent / "data" / "as-rel2-small.txt"


class TestParser:
    def test_relationships_and_roles(self):
        g = parse_as_rel2("# comment\n1|2|-1\n2|3|-1\n1|4|0\n4|2|-1\n")
        assert g.nodes[1]["role"] is ASRole.CORE      # customers, no provider
        assert g.nodes[2]["role"] is ASRole.TRANSIT   # both
        assert g.nodes[3]["role"] is ASRole.STUB      # no customers
        assert g.edges[1, 2]["rel"] == "p2c"
        assert g.edges[1, 2]["provider"] == 1
        assert g.edges[1, 4]["rel"] == "p2p"

    def test_accepts_iterable_of_lines(self):
        g = parse_as_rel2(["1|2|-1", "", "# x", "2|3|0"])
        assert sorted(g.nodes) == [1, 2, 3]

    def test_accepts_path(self):
        g = parse_as_rel2(FIXTURE)
        assert g.number_of_nodes() > 200

    def test_disconnected_keeps_giant_component(self):
        g = parse_as_rel2("1|2|-1\n1|5|-1\n3|4|0\n")
        assert sorted(g.nodes) == [1, 2, 5]

    def test_self_loops_ignored(self):
        g = parse_as_rel2("1|1|-1\n1|2|-1\n")
        assert sorted(g.nodes) == [1, 2]

    @pytest.mark.parametrize("bad", ["1|2", "1|2|5", "a|b|-1", "1||0"])
    def test_malformed_raises(self, bad):
        with pytest.raises(TopologyError):
            parse_as_rel2(f"1|2|-1\n{bad}\n")

    def test_empty_source_raises(self):
        with pytest.raises(TopologyError):
            parse_as_rel2("# nothing here\n")


class TestSynthesizer:
    def test_deterministic(self):
        assert synthesize_as_rel2(300, seed=9) == synthesize_as_rel2(300, seed=9)
        assert synthesize_as_rel2(300, seed=9) != synthesize_as_rel2(300, seed=10)

    def test_shape(self):
        topo = TopologyBuilder.from_as_rel2(synthesize_as_rel2(500, seed=1))
        assert len(topo) == 500
        assert topo.core_ases and topo.transit_ases and topo.stub_ases
        # stub-heavy, like real AS snapshots
        assert len(topo.stub_ases) > len(topo) / 3

    def test_too_small_raises(self):
        with pytest.raises(TopologyError):
            synthesize_as_rel2(1)


class TestFixture:
    def test_fixture_matches_generator(self):
        """The committed file is exactly synthesize_as_rel2(250, seed=20250807)
        — regenerate it if the generator intentionally changes."""
        assert FIXTURE.read_text() == synthesize_as_rel2(250, seed=20250807)

    def test_loads_as_topology(self):
        topo = TopologyBuilder.from_as_rel2(FIXTURE)
        assert len(topo) == 250
        assert topo.graph.number_of_edges() >= 250

    def test_packet_delivery_on_fixture(self):
        topo = TopologyBuilder.from_as_rel2(FIXTURE)
        net = Network(topo)
        stubs = topo.stub_ases
        a = net.add_host(stubs[0])
        b = net.add_host(stubs[-1])
        a.send(Packet.udp(a.address, b.address))
        net.run()
        assert b.received_packets == 1

    def test_fluid_flood_on_fixture(self):
        fluid = FluidNetwork.from_as_rel2(FIXTURE)
        topo = fluid.topology
        rng = derive_rng(5, "caida-test")
        victim = topo.stub_ases[0]
        flows = flood_flows(topo, victim, 40, rate_each=1e6, rng=rng)
        assert len(flows) == 40
        assert all(f.dst_asn == victim and f.src_asn != victim for f in flows)
        result = fluid.evaluate(flows)
        assert result.delivered_rate() > 0
        assert result.sent_rate() == pytest.approx(40e6)

    def test_flood_flows_deterministic(self):
        topo = TopologyBuilder.from_as_rel2(FIXTURE)
        pick = lambda: [f.src_asn for f in flood_flows(  # noqa: E731
            topo, topo.stub_ases[0], 10, 1.0, derive_rng(3, "x"))]
        assert pick() == pick()

    def test_flood_flows_too_many_sources(self):
        topo = TopologyBuilder.from_as_rel2(FIXTURE)
        with pytest.raises(TopologyError):
            flood_flows(topo, topo.stub_ases[0], 10_000, 1.0,
                        derive_rng(3, "x"))


class TestPrefixLength:
    """Without a prefix length: /24, or the shortest longer one that fits."""

    def test_default_is_slash_24_when_it_fits(self):
        topo = TopologyBuilder.from_as_rel2(synthesize_as_rel2(300, seed=1))
        assert {topo.prefix_of(a).length for a in topo.as_numbers} == {24}

    def test_longer_prefix_when_pool_is_small(self):
        text = synthesize_as_rel2(300, seed=1)
        topo = TopologyBuilder.from_as_rel2(text, pool="10.0.0.0/16")
        assert {topo.prefix_of(a).length for a in topo.as_numbers} == {25}
        fluid = FluidNetwork.from_as_rel2(text)
        assert fluid.topology.prefix_of(fluid.topology.as_numbers[0]).length == 24

    def test_error_names_count_and_fix(self):
        text = synthesize_as_rel2(300, seed=1)
        with pytest.raises(TopologyError, match=r"300 ASes .*prefix_length >= 25"):
            TopologyBuilder.from_as_rel2(text, prefix_length=24,
                                         pool="10.0.0.0/16")
        with pytest.raises(TopologyError, match="300 ASes .*larger pool"):
            TopologyBuilder.from_as_rel2(text, pool="10.0.0.0/25")


class TestSpecIntegration:
    def test_caida_kind_builds(self):
        spec = TopologySpec(kind="caida", n=120)
        topo = spec.build(base_seed=42)
        assert len(topo) == 120

    def test_caida_kind_seed_sensitivity(self):
        spec = TopologySpec(kind="caida", n=120)
        a = spec.build(base_seed=42)
        b = spec.build(base_seed=42)
        c = spec.build(base_seed=43)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)
        assert sorted(a.graph.edges) != sorted(c.graph.edges)

    def test_spec_round_trips_through_json(self):
        spec = TopologySpec(kind="caida", n=64, seed_offset=3)
        from repro.scenario.spec import ScenarioSpec

        full = ScenarioSpec(topology=spec)
        again = ScenarioSpec.from_json(full.to_json())
        assert again.topology.kind == "caida"
        assert again.topology.n == 64


class TestScale:
    def test_as_of_many_at_caida_scale(self):
        topo = TopologyBuilder.caida_like(2000, seed=6)
        addrs = np.array([int(topo.prefix_of(asn).base) + 1
                          for asn in topo.as_numbers[:256]], dtype=np.int64)
        resolved = topo.as_of_many(addrs)
        assert list(resolved) == topo.as_numbers[:256]

    def test_large_graph_connected_and_fast(self):
        topo = TopologyBuilder.caida_like(5000, seed=2)
        import networkx as nx

        assert nx.is_connected(topo.graph)
        assert len(topo) == 5000
