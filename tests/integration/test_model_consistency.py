"""Cross-validation: the packet-level simulator and the fluid model are
independent implementations of the same network semantics — on scenarios
both can express, they must agree (within discretisation noise).

This is the repository's internal replication check: every sweep result
(E3/E4/E12) rests on the fluid model, and every matrix result (E2) on the
packet model; this file pins them together.
"""

import pytest

from repro.attack import DirectFlood
from repro.mitigation import IngressFiltering, RouteBasedFiltering
from repro.net import (
    Flow,
    FlowSet,
    FluidNetwork,
    LinkParams,
    Network,
    Packet,
    TopologyBuilder,
)
from repro.util.units import Mbps, ms


class TestBottleneckAgreement:
    @pytest.mark.parametrize("offered_mbps", [5.0, 15.0, 40.0])
    def test_delivery_through_a_bottleneck(self, offered_mbps):
        """Delivered rate == min(offered, capacity) in both models."""
        capacity = Mbps(10)
        topo = TopologyBuilder.line(3)
        # fluid model
        fluid = FluidNetwork(topo, capacity_fn=lambda a, b: capacity)
        flows = FlowSet([Flow(0, 2, Mbps(offered_mbps))])
        fluid_delivered = fluid.evaluate(flows).delivered_rate()
        # packet model: same bottleneck on the inter-AS links
        net = Network(
            topo if False else TopologyBuilder.line(3),
            link_params_fn=lambda a, b: LinkParams(
                bandwidth=capacity, delay=ms(1), buffer_bytes=40_000),
        )
        fat = LinkParams(bandwidth=Mbps(1000), delay=ms(1), buffer_bytes=10**7)
        src = net.add_host(0, access=fat)
        dst = net.add_host(2, access=fat)
        size = 1000
        rate_pps = Mbps(offered_mbps) / (size * 8)
        duration = 1.0
        DirectFlood(net, [src], dst, rate_pps=rate_pps, packet_size=size,
                    duration=duration, spoof="none", seed=1).launch()
        net.run(until=duration + 0.5)
        packet_delivered = dst.received_bytes * 8 / duration
        expected = min(Mbps(offered_mbps), capacity)
        assert fluid_delivered == pytest.approx(expected, rel=0.02)
        # the packet model carries queueing/startup transients: 12% slack
        assert packet_delivered == pytest.approx(expected, rel=0.12)
        assert packet_delivered == pytest.approx(fluid_delivered, rel=0.12)


class TestFilteringAgreement:
    @pytest.mark.parametrize("deployed_fraction", [0.0, 0.5, 1.0])
    def test_partial_ingress_deployment(self, deployed_fraction):
        """Survival under partial ingress filtering matches across models."""
        topo = TopologyBuilder.hierarchical(2, 2, 6, seed=33)
        stubs = topo.stub_ases
        victim_asn = stubs[0]
        agent_asns = stubs[1:9]
        n_deployed = int(round(deployed_fraction * len(agent_asns)))
        deployed = set(agent_asns[:n_deployed])

        # fluid: spoofed flows, ingress filter at the deployed stubs
        fluid = FluidNetwork(topo)
        ing = IngressFiltering()
        ing.deployed_asns = set(deployed)
        flows = FlowSet([
            Flow(a, victim_asn, 1e6, kind="attack", claimed_src_asn=victim_asn)
            for a in agent_asns
        ])
        fluid_survival = fluid.evaluate(
            flows, filters=[ing.fluid_filter(fluid)], congestion=False
        ).survival_fraction("attack")

        # packet level: same layout, light rate (no congestion)
        net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=33))
        victim = net.add_host(victim_asn)
        agents = [net.add_host(a) for a in agent_asns]
        ing_pkt = IngressFiltering()
        ing_pkt.deploy(net, deployed)
        DirectFlood(net, agents, victim, rate_pps=40.0, duration=0.5,
                    spoof="random", seed=2).launch()
        # force the spoof to always claim the victim (match the fluid flows)
        net.reset_stats()
        for agent in agents:
            agent.send(Packet.udp(victim.address, victim.address,
                                  kind="probe", spoofed=True,
                                  true_origin=agent.name))
        net.run()
        delivered = victim.received_by_kind.get("probe", 0)
        packet_survival = delivered / len(agents)
        expected = 1.0 - deployed_fraction
        assert fluid_survival == pytest.approx(expected, abs=0.01)
        assert packet_survival == pytest.approx(expected, abs=0.01)


    def test_partial_top_degree_rbf_deployment(self):
        """Route-based filtering at the top-degree 10% of ASes drops the
        same spoofed flows in both models."""
        topo = TopologyBuilder.powerlaw(n=40, m=2, seed=5)
        ases = topo.as_numbers
        deployed = sorted(ases, key=lambda a: -topo.degree(a))[:4]
        victim_asn = topo.stub_ases[0]
        # every other stub floods the victim, each claiming a different AS
        pairs = [(a, ases[(7 * i + 3) % len(ases)])
                 for i, a in enumerate(topo.stub_ases[1:])]
        pairs = [(a, c) for a, c in pairs if c != a]

        fluid = FluidNetwork(topo)
        rbf = RouteBasedFiltering()
        rbf.deployed_asns = set(deployed)
        result = fluid.evaluate(
            FlowSet([Flow(a, victim_asn, 1e6, kind="attack",
                          claimed_src_asn=c) for a, c in pairs]),
            filters=[rbf.fluid_filter(fluid)], congestion=False)
        fluid_passed = [bool(d > 0) for d in result.delivered]

        net = Network(TopologyBuilder.powerlaw(n=40, m=2, seed=5))
        victim = net.add_host(victim_asn)
        RouteBasedFiltering().deploy(net, deployed)
        for i, (a, c) in enumerate(pairs):
            net.add_host(a).send(Packet.udp(
                net.topology.prefix_of(c).first, victim.address,
                kind=f"probe{i}", spoofed=True))
        net.run()
        packet_passed = [victim.received_by_kind.get(f"probe{i}", 0) == 1
                         for i in range(len(pairs))]
        assert packet_passed == fluid_passed
        assert 0 < sum(fluid_passed) < len(pairs)  # the deployment is partial


class TestPathAgreement:
    def test_paths_identical_across_models(self):
        topo = TopologyBuilder.powerlaw(n=60, m=2, seed=9)
        net = Network(topo)
        fluid = FluidNetwork(net.topology)
        nodes = net.topology.as_numbers
        for src in nodes[:6]:
            for dst in nodes[-6:]:
                assert len(net.path(src, dst)) == len(fluid.path(src, dst))
