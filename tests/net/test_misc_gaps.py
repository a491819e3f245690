"""Tests for remaining small public surfaces."""

import pytest


class TestProbeObserverBounds:
    def test_max_records_bound(self):
        from repro.core import NetworkUser
        from repro.core.apps.debugging import ProbeObserver
        from repro.core.components import ComponentContext
        from repro.net import IPv4Address, Packet, Prefix

        observer = ProbeObserver(max_records=3)
        ctx = ComponentContext(
            now=0.0, asn=1, is_transit=False,
            local_prefix=Prefix.parse("10.0.0.0/16"), stage="dest",
            owner=NetworkUser("u", prefixes=[Prefix.parse("10.1.0.0/16")]))
        for i in range(10):
            observer(Packet.udp(IPv4Address(1), IPv4Address(2)), ctx)
        assert len(observer.observations) == 3
        assert observer.processed == 10


class TestOverlayMultipleBeacons:
    def test_round_robin_over_beacons(self):
        from repro.mitigation import SecureOverlay
        from repro.net import Network, Packet, TopologyBuilder

        net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=41))
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        clients = [net.add_host(a) for a in stubs[1:3]]
        sos = SecureOverlay(victim, overlay_asns=stubs[3:10], n_soaps=2,
                            n_beacons=2, n_servlets=1)
        sos.deploy(net)
        for client in clients:
            sos.authorize(client)
            pkt = sos.overlay_packet(client, Packet.udp(
                client.address, victim.address, kind="legit"))
            client.send(pkt)
        net.run()
        assert victim.received_by_kind.get("legit", 0) == 2
        # both beacons participated (each soap maps to a distinct beacon)
        beacon_traffic = [b.received_packets for b in sos.beacons]
        assert sum(beacon_traffic) == 2

    def test_stretch_uses_matching_beacon(self):
        from repro.mitigation import SecureOverlay
        from repro.net import Network, TopologyBuilder

        net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=41))
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        client = net.add_host(stubs[1])
        sos = SecureOverlay(victim, overlay_asns=stubs[3:10], n_soaps=2,
                            n_beacons=2, n_servlets=1)
        sos.deploy(net)
        assert sos.stretch(client) >= 1.0


class TestFmtHelpers:
    def test_table_column_missing_raises(self):
        from repro.util import Table

        t = Table("x", ["a"])
        with pytest.raises(ValueError):
            t.column("nope")

    def test_online_stats_stdev(self):
        from repro.util import OnlineStats

        s = OnlineStats()
        for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            s.add(x)
        assert s.stdev == pytest.approx(2.138, abs=0.01)


class TestSpawnGeneratorSeeding:
    def test_traffic_generator_accepts_generator_seed(self):
        from repro.attack import TrafficGenerator
        from repro.net import Network, Packet, TopologyBuilder
        from repro.util import derive_rng

        net = Network(TopologyBuilder.line(2))
        a = net.add_host(0)
        b = net.add_host(1)
        gen = TrafficGenerator(a, lambda s, t: Packet.udp(a.address, b.address),
                               rate_pps=100.0, duration=0.1, poisson=True,
                               seed=derive_rng(5, "g"))
        gen.install()
        net.run()
        assert gen.sent > 0
