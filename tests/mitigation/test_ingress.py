"""Tests for ingress filtering and route-based packet filtering."""

import networkx as nx

from repro.attack import DirectFlood
from repro.mitigation import IngressFiltering, RouteBasedFiltering
from repro.net import (
    Flow,
    FlowSet,
    FluidNetwork,
    IPv4Address,
    Network,
    Packet,
    TopologyBuilder,
)


def flood_setup(spoof, topology_seed=1):
    net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=topology_seed))
    stubs = net.topology.stub_ases
    victim = net.add_host(stubs[0], record=True)
    agents = [net.add_host(a) for a in stubs[1:4]]
    flood = DirectFlood(net, agents, victim, rate_pps=50.0, duration=0.4,
                        spoof=spoof, seed=3)
    return net, victim, agents, flood


class TestIngressFilteringPacketLevel:
    def test_blocks_spoofed_at_source_as(self):
        net, victim, agents, flood = flood_setup("random")
        ing = IngressFiltering()
        ing.deploy(net, [a.asn for a in agents])
        flood.launch()
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 0
        assert ing.dropped > 0

    def test_no_effect_on_unspoofed(self):
        """Botnet traffic with real sources passes ingress filtering."""
        net, victim, agents, flood = flood_setup("none")
        IngressFiltering().deploy(net, [a.asn for a in agents])
        flood.launch()
        net.run()
        assert victim.received_by_kind["attack"] > 0

    def test_only_deploying_ases_filter(self):
        net, victim, agents, flood = flood_setup("random")
        IngressFiltering().deploy(net, [agents[0].asn])  # one of three
        flood.launch()
        net.run()
        srcs_origin = {p.true_origin for _, p in victim.log if p.kind == "attack"}
        assert agents[0].name not in srcs_origin
        assert len(srcs_origin) == 2

    def test_transit_traffic_untouched(self):
        """Ingress filtering checks only locally injected packets."""
        net = Network(TopologyBuilder.line(4))
        a = net.add_host(0)
        b = net.add_host(3)
        IngressFiltering().deploy(net, [1, 2])  # transit ASes on the path
        # spoofed packet injected at AS0 (no filter there) transits 1 and 2
        a.send(Packet.udp(IPv4Address.parse("10.0.99.1"), b.address,
                          kind="attack", spoofed=True))
        net.run()
        # AS1/AS2 must NOT drop it: it did not enter from their customers
        assert net.total_dropped("filter:ingress") == 0

    def test_legit_local_traffic_passes(self):
        net, victim, agents, flood = flood_setup("random")
        ing = IngressFiltering()
        ing.deploy(net, net.topology.as_numbers)
        legit = net.add_host(net.topology.stub_ases[5])
        legit.send(Packet.udp(legit.address, victim.address, kind="legit"))
        net.run()
        assert victim.received_by_kind.get("legit", 0) == 1


class TestRouteBasedFilteringPacketLevel:
    def test_blocks_spoofed_on_transit_path(self):
        """RBF works at *any* deployed AS on the path, not just the edge."""
        net = Network(TopologyBuilder.line(5))
        agent = net.add_host(0)
        victim = net.add_host(4, record=True)
        # spoof an address belonging to AS3 — but inject at AS0:
        spoofed_src = IPv4Address(net.topology.prefix_of(3).base + 7)
        rbf = RouteBasedFiltering()
        rbf.deploy(net, [2])  # deployed mid-path only
        agent.send(Packet.udp(spoofed_src, victim.address, kind="attack", spoofed=True))
        net.run()
        # at AS2, traffic claiming source AS3 must come from AS3's side
        assert victim.received_packets == 0
        assert rbf.dropped == 1

    def test_consistent_traffic_passes(self):
        net = Network(TopologyBuilder.line(5))
        a = net.add_host(0)
        victim = net.add_host(4)
        RouteBasedFiltering().deploy(net, net.topology.as_numbers)
        a.send(Packet.udp(a.address, victim.address, kind="legit"))
        net.run()
        assert victim.received_packets == 1

    def test_bogon_source_dropped(self):
        net = Network(TopologyBuilder.line(3))
        a = net.add_host(0)
        victim = net.add_host(2)
        rbf = RouteBasedFiltering()
        rbf.deploy(net, [1])
        a.send(Packet.udp(IPv4Address.parse("203.0.113.9"), victim.address))
        net.run()
        assert victim.received_packets == 0

    def test_own_prefix_from_outside_dropped(self):
        net = Network(TopologyBuilder.line(3))
        a = net.add_host(0)
        victim = net.add_host(2, record=True)
        rbf = RouteBasedFiltering()
        rbf.deploy(net, [2])
        # spoof the victim's own prefix from a remote AS
        spoof = IPv4Address(net.topology.prefix_of(2).base + 9)
        a.send(Packet.udp(spoof, victim.address, kind="attack"))
        net.run()
        assert victim.received_packets == 0

    def test_checks_against_routes_after_a_link_failure(self):
        """RBF checks ingress against the routes the routers use now, not
        the ones in force when it was deployed."""
        topo = TopologyBuilder.from_graph(
            nx.Graph([(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]))
        net = Network(topo)
        a = net.add_host(0)
        victim = net.add_host(3, record=True)
        rbf = RouteBasedFiltering()
        rbf.deploy(net, [3])
        net.fail_link(1, 3)
        assert net.path(0, 3) == [0, 2, 4, 3]
        a.send(Packet.udp(a.address, victim.address, kind="legit"))
        net.run()
        assert victim.received_packets == 1
        assert net.total_dropped("filter:rbf") == 0


class TestFluidFilters:
    def test_ingress_fluid_blocks_spoofed_at_source(self):
        topo = TopologyBuilder.line(4)
        fluid = FluidNetwork(topo)
        net = Network(topo)
        ing = IngressFiltering()
        ing.deployed_asns = {0}
        filt = ing.fluid_filter(fluid)
        flows = FlowSet([
            Flow(0, 3, 1e6, kind="attack", claimed_src_asn=2),
            Flow(0, 3, 1e6, kind="legit"),
        ])
        r = fluid.evaluate(flows, filters=[filt])
        assert r.survival_fraction("attack") == 0.0
        assert r.survival_fraction("legit") == 1.0
        del net

    def test_rbf_fluid_blocks_inconsistent_arrivals(self):
        topo = TopologyBuilder.line(5)
        fluid = FluidNetwork(topo)
        rbf = RouteBasedFiltering()
        rbf.deployed_asns = {2}
        filt = rbf.fluid_filter(fluid)
        # flow from AS0 claiming AS4 (victim side): at AS2 it arrives from
        # AS1, but traffic from AS4 should arrive from AS3.
        flows = FlowSet([Flow(0, 3, 1e6, kind="attack", claimed_src_asn=4)])
        r = fluid.evaluate(flows, filters=[filt])
        assert r.survival_fraction("attack") == 0.0

    def test_rbf_fluid_consistent_spoof_passes(self):
        """A spoof whose claimed source lies on the same shortest path
        direction is indistinguishable — RBF lets it through (known gap)."""
        topo = TopologyBuilder.line(5)
        fluid = FluidNetwork(topo)
        rbf = RouteBasedFiltering()
        rbf.deployed_asns = {2}
        filt = rbf.fluid_filter(fluid)
        flows = FlowSet([Flow(1, 4, 1e6, kind="attack", claimed_src_asn=0)])
        r = fluid.evaluate(flows, filters=[filt])
        assert r.survival_fraction("attack") == 1.0

    def test_rbf_fluid_ingress_check_at_source(self):
        topo = TopologyBuilder.line(4)
        fluid = FluidNetwork(topo)
        rbf = RouteBasedFiltering()
        rbf.deployed_asns = {0}
        filt = rbf.fluid_filter(fluid)
        r = fluid.evaluate(
            FlowSet([Flow(0, 3, 1e6, kind="attack", claimed_src_asn=2)]),
            filters=[filt])
        assert r.survival_fraction("attack") == 0.0
