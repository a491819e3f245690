"""The per-router route cache: cached destinations follow every topology
change, and a network that lived through failures forwards exactly like a
freshly built one with the same final topology."""

import networkx as nx
import pytest

from repro.attack.flood import TrafficGenerator
from repro.errors import RoutingError, TopologyError
from repro.net import IPv4Address, Network, Packet, TopologyBuilder
from repro.net import node as node_module
from repro.net.routing import Routing


def ring_net(without=None):
    """Four ASes in a ring: 0 reaches 2 via 1, or via 3 once 0-1 fails."""
    graph = nx.cycle_graph(4)
    if without is not None:
        graph.remove_edge(*without)
    return Network(TopologyBuilder.from_graph(graph))


def send_mix(net, hosts):
    """One packet between every host pair, plus one of each drop kind."""
    for src in hosts:
        for dst in hosts:
            src.send(Packet.udp(src.address, dst.address))
    a = hosts[0]
    a.send(Packet.udp(a.address, hosts[2].address, ttl=2))       # ttl-expired
    a.send(Packet.udp(a.address, net.topology.prefix_of(3).last))  # no-host
    a.send(Packet.udp(a.address, IPv4Address.parse("203.0.113.1")))  # no-route
    net.run()


def counters(net):
    return {asn: (r.forwarded_packets, r.delivered_packets, dict(r.drops))
            for asn, r in net.routers.items()}


def fresh_counters(without=None):
    net = ring_net(without)
    send_mix(net, [net.add_host(asn) for asn in range(4)])
    return counters(net)


class TestInvalidation:
    def test_cached_destinations_reroute_mid_run(self):
        net = ring_net()
        a, b = net.add_host(0), net.add_host(2)
        gen = TrafficGenerator(a, lambda seq, now: Packet.udp(a.address, b.address),
                               rate_pps=200, duration=0.9)
        gen.install()
        net.sim.schedule_at(0.3, net.fail_link, 0, 1)
        net.sim.schedule_at(0.6, net.restore_link, 0, 1)
        via = {}  # time -> packets forwarded by AS1, AS3 so far
        for t in (0.29, 0.35, 0.59, 0.65):
            net.sim.schedule_at(t, lambda t=t: via.__setitem__(
                t, (net.routers[1].forwarded_packets,
                    net.routers[3].forwarded_packets)))
        net.run()
        end = (net.routers[1].forwarded_packets, net.routers[3].forwarded_packets)
        assert via[0.29][0] > 0 and via[0.29][1] == 0    # 0 -> 1 -> 2
        assert via[0.59][1] - via[0.35][1] > 0          # detour 0 -> 3 -> 2
        assert via[0.59][0] == via[0.35][0]             # nothing via AS1
        assert end[0] - via[0.65][0] > 0                # back on 0 -> 1 -> 2
        assert end[1] == via[0.65][1]
        assert b.received_packets == gen.sent

    def test_counters_match_fresh_network_after_fail_and_restore(self):
        net = ring_net()
        hosts = [net.add_host(asn) for asn in range(4)]
        send_mix(net, hosts)  # warms every router's cache
        assert all(r.route_cache for r in net.routers.values())
        assert counters(net) == fresh_counters()

        net.fail_link(0, 1)
        net.reset_stats()
        send_mix(net, hosts)
        assert counters(net) == fresh_counters(without=(0, 1))

        net.restore_link(0, 1)
        net.reset_stats()
        send_mix(net, hosts)
        assert counters(net) == fresh_counters()

    def test_only_failed_links_can_be_restored(self):
        net = ring_net()
        with pytest.raises(TopologyError):
            net.restore_link(0, 1)
        net.fail_link(0, 1)
        net.restore_link(1, 0)  # either orientation names the adjacency
        with pytest.raises(TopologyError):
            net.restore_link(0, 1)


class TestBoundsAndOrder:
    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(node_module, "ROUTE_CACHE_SIZE", 2)
        net = ring_net()
        hosts = [net.add_host(asn) for asn in range(4)]
        send_mix(net, hosts)
        assert all(len(r.route_cache) <= 2 for r in net.routers.values())
        assert counters(net) == fresh_counters()

    def test_ttl_drop_precedes_routing_error(self):
        """A destination with no next hop is cached without one; a packet
        whose TTL expires first is dropped, any other still raises."""
        net = Network(TopologyBuilder.line(3))
        a, c = net.add_host(0), net.add_host(2)
        unroutable = nx.Graph([(0, 1)])
        unroutable.add_node(2)
        net.routing = Routing(unroutable)  # AS2 unreachable
        a.send(Packet.udp(a.address, c.address, ttl=1))
        net.run()
        assert net.routers[0].drops["ttl-expired"] == 1
        a.send(Packet.udp(a.address, c.address))
        with pytest.raises(RoutingError):
            net.run()
