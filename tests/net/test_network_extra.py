"""Additional Network construction and accounting tests."""


from repro.net import LinkParams, Network, Packet, TopologyBuilder
from repro.util.units import Mbps, ms


class TestCustomLinkParams:
    def test_link_params_fn_overrides_tiers(self):
        calls = []

        def chooser(a, b):
            calls.append((a, b))
            return LinkParams(bandwidth=Mbps(7), delay=ms(1), buffer_bytes=10_000)

        net = Network(TopologyBuilder.line(3), link_params_fn=chooser)
        assert all(link.bandwidth == Mbps(7) for link in net.links.values())
        # called once per direction per edge
        assert len(calls) == 2 * net.topology.graph.number_of_edges()

    def test_asymmetric_links_possible(self):
        def chooser(a, b):
            bw = Mbps(100) if a < b else Mbps(10)
            return LinkParams(bandwidth=bw, delay=ms(1), buffer_bytes=10_000)

        net = Network(TopologyBuilder.line(2), link_params_fn=chooser)
        assert net.link_between(0, 1).bandwidth == Mbps(100)
        assert net.link_between(1, 0).bandwidth == Mbps(10)

    def test_restored_link_keeps_its_custom_params(self):
        def chooser(a, b):
            bw = Mbps(100) if a < b else Mbps(10)
            return LinkParams(bandwidth=bw, delay=ms(3), buffer_bytes=12_345)

        topology = TopologyBuilder.star(3)
        topology.graph.add_edge(1, 2)  # a redundant leaf-leaf adjacency
        net = Network(topology, link_params_fn=chooser)
        net.fail_link(2, 1)
        net.restore_link(1, 2)
        for x, y in ((1, 2), (2, 1)):
            link = net.link_between(x, y)
            want = chooser(x, y)
            assert (link.bandwidth, link.delay, link.buffer_bytes) == (
                want.bandwidth, want.delay, want.buffer_bytes)


class TestByteHopAccounting:
    def test_delivered_traffic_counts_hops(self):
        net = Network(TopologyBuilder.line(4))
        a = net.add_host(0)
        b = net.add_host(3)
        a.send(Packet.udp(a.address, b.address, size=100, kind="x"))
        net.run()
        # three inter-AS hops at 100 bytes each
        assert net.byte_hops_by_kind["x"] == 300

    def test_local_delivery_counts_zero_hops(self):
        net = Network(TopologyBuilder.line(2))
        a = net.add_host(0)
        b = net.add_host(0)
        a.send(Packet.udp(a.address, b.address, size=100, kind="x"))
        net.run()
        assert b.received_packets == 1
        assert net.byte_hops_by_kind.get("x", 0) == 0


class TestRepr:
    def test_reprs_do_not_crash(self):
        net = Network(TopologyBuilder.line(2))
        host = net.add_host(0)
        host.send(Packet.udp(host.address, host.address))
        for obj in (net, net.sim, net.routers[0], host,
                    net.link_between(0, 1), net.topology):
            assert repr(obj)


class TestMultiHostAses:
    def test_many_hosts_one_as(self):
        net = Network(TopologyBuilder.line(2))
        hosts = [net.add_host(0) for _ in range(5)]
        sink = net.add_host(1)
        for h in hosts:
            h.send(Packet.udp(h.address, sink.address))
        net.run()
        assert sink.received_packets == 5
        assert len({int(h.address) for h in hosts}) == 5

    def test_host_to_host_same_as(self):
        net = Network(TopologyBuilder.line(2))
        a = net.add_host(0)
        b = net.add_host(0)
        a.send(Packet.udp(a.address, b.address))
        net.run()
        assert b.received_packets == 1
        # hairpin through the AS router, no inter-AS forwarding
        assert net.routers[0].forwarded_packets == 0
        assert net.routers[0].delivered_packets == 1
