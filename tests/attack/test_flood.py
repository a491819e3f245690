"""Tests for traffic generators and direct floods."""

import pytest

from repro.attack import DirectFlood, TrafficGenerator
from repro.attack.flood import spoofed_source_picker
from repro.errors import AttackConfigError
from repro.net import Network, Packet, TopologyBuilder
from repro.util import derive_rng


def small_net():
    net = Network(TopologyBuilder.hierarchical(2, 2, 3, seed=1))
    return net


class TestTrafficGenerator:
    def test_cbr_packet_count(self):
        net = small_net()
        a = net.add_host(net.topology.stub_ases[0])
        b = net.add_host(net.topology.stub_ases[1])
        gen = TrafficGenerator(a, lambda s, t: Packet.udp(a.address, b.address),
                               rate_pps=100.0, duration=0.5)
        gen.install()
        net.run()
        # t = 0, 0.01, ..., ~0.5; the final slot may fall to float accumulation
        assert gen.sent in (50, 51)
        assert b.received_packets == gen.sent

    def test_factory_none_skips(self):
        net = small_net()
        a = net.add_host(net.topology.stub_ases[0])
        b = net.add_host(net.topology.stub_ases[1])
        gen = TrafficGenerator(
            a, lambda s, t: Packet.udp(a.address, b.address) if s < 3 else None,
            rate_pps=100.0, duration=0.2)
        gen.install()
        net.run()
        assert gen.sent == 3

    def test_start_offset(self):
        net = small_net()
        a = net.add_host(net.topology.stub_ases[0])
        b = net.add_host(net.topology.stub_ases[1])
        times = []
        gen = TrafficGenerator(
            a, lambda s, t: times.append(t) or Packet.udp(a.address, b.address),
            rate_pps=10.0, start=0.5, duration=0.3)
        gen.install()
        net.run()
        assert times and min(times) >= 0.5
        assert max(times) <= 0.8 + 1e-9

    def test_invalid_parameters(self):
        net = small_net()
        a = net.add_host(net.topology.stub_ases[0])
        with pytest.raises(AttackConfigError):
            TrafficGenerator(a, lambda s, t: None, rate_pps=0.0)
        with pytest.raises(AttackConfigError):
            TrafficGenerator(a, lambda s, t: None, rate_pps=1.0, duration=0.0)


class TestSpoofedSourcePicker:
    def test_excludes_given_asns(self):
        net = small_net()
        excluded = net.topology.stub_ases[0]
        pick = spoofed_source_picker(net, derive_rng(1), exclude_asns=[excluded])
        for _ in range(100):
            assert net.topology.as_of(pick()) != excluded

    def test_addresses_map_to_real_ases(self):
        net = small_net()
        pick = spoofed_source_picker(net, derive_rng(2))
        for _ in range(50):
            assert net.topology.as_of(pick()) is not None

    def test_no_candidates(self):
        net = small_net()
        with pytest.raises(AttackConfigError):
            spoofed_source_picker(net, derive_rng(1),
                                  exclude_asns=net.topology.as_numbers)


class TestDirectFlood:
    def _scenario(self, spoof):
        net = small_net()
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        agents = [net.add_host(a) for a in stubs[1:4]]
        flood = DirectFlood(net, agents, victim, rate_pps=50.0, duration=0.5,
                            spoof=spoof, seed=4)
        return net, victim, agents, flood

    def test_unspoofed_sources_are_agents(self):
        net, victim, agents, flood = self._scenario("none")
        victim.record = True
        flood.launch()
        net.run()
        agent_addrs = {int(a.address) for a in agents}
        srcs = {int(p.src) for _, p in victim.log}
        assert srcs <= agent_addrs
        assert victim.received_by_kind["attack"] > 0

    def test_spoofed_sources_are_not_agents(self):
        net, victim, agents, flood = self._scenario("random")
        victim.record = True
        flood.launch()
        net.run()
        spoofed = [p for _, p in victim.log]
        assert all(p.spoofed for p in spoofed)
        # ground truth retained
        assert all(p.true_origin.startswith("host-") for p in spoofed)

    def test_invalid_spoof_mode(self):
        net, victim, agents, flood = self._scenario("none")
        flood.spoof = "bogus"
        with pytest.raises(AttackConfigError):
            flood.launch()

    def test_as_flows_shape(self):
        net, victim, agents, flood = self._scenario("random")
        flows = flood.as_flows()
        assert len(flows) == len(agents)
        assert all(f.dst_asn == victim.asn for f in flows)
        assert all(f.spoofed for f in flows)
        assert all(f.rate == 50.0 * 512 * 8 for f in flows)

    def test_as_flows_unspoofed(self):
        net, victim, agents, flood = self._scenario("none")
        flows = flood.as_flows()
        assert all(not f.spoofed for f in flows)
