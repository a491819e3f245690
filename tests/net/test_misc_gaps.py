"""Tests for remaining small public surfaces."""

import pytest


class TestProbeObserverBounds:
    def test_max_records_bound(self, monkeypatch):
        from repro.core import NetworkUser
        from repro.core.apps import debugging
        from repro.core.components import ComponentContext
        from repro.net import IPv4Address, Packet, Prefix
        from tests.policy.test_compiler import one_op_program

        monkeypatch.setattr(debugging, "MAX_RECORDS", 3)
        observer = debugging.ProbeObserver()
        ctx = ComponentContext(
            now=0.0, asn=1, is_transit=False,
            local_prefix=Prefix.parse("10.0.0.0/16"), stage="dest",
            owner=NetworkUser("u", prefixes=[Prefix.parse("10.1.0.0/16")]))
        program = one_op_program(observer)
        for i in range(10):
            program.process(Packet.udp(IPv4Address(1), IPv4Address(2)), ctx)
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
