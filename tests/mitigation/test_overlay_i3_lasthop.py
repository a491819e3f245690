"""Tests for SOS overlay, i3 defense and last-hop filtering."""

import pytest

from repro.attack import DirectFlood
from repro.errors import MitigationError
from repro.mitigation import I3Defense, LastHopFilter, SecureOverlay
from repro.net import Network, Packet, Protocol, TopologyBuilder


def base_net(seed=2):
    net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=seed))
    stubs = net.topology.stub_ases
    victim = net.add_host(stubs[0], record=True)
    client = net.add_host(stubs[1])
    attacker = net.add_host(stubs[2])
    return net, victim, client, attacker, stubs


class TestSecureOverlay:
    def _overlay(self):
        net, victim, client, attacker, stubs = base_net()
        sos = SecureOverlay(victim, overlay_asns=stubs[3:8], n_soaps=2,
                            n_beacons=1, n_servlets=1)
        sos.deploy(net)
        return net, victim, client, attacker, sos

    def test_needs_enough_overlay_ases(self):
        net, victim, *_ = base_net()
        with pytest.raises(MitigationError):
            SecureOverlay(victim, overlay_asns=[1], n_soaps=2)

    def test_authorized_client_reaches_victim_via_overlay(self):
        net, victim, client, attacker, sos = self._overlay()
        sos.authorize(client)
        pkt = sos.overlay_packet(client, Packet.udp(client.address, victim.address, kind="legit"))
        client.send(pkt)
        net.run()
        assert victim.received_by_kind.get("legit", 0) == 1
        # the packet arrived from the servlet, not the client
        (_, delivered), = victim.log
        assert int(delivered.src) == int(sos.servlets[0].address)

    def test_unauthorized_client_rejected_at_soap(self):
        net, victim, client, attacker, sos = self._overlay()
        pkt = sos.overlay_packet(client, Packet.udp(client.address, victim.address, kind="legit"))
        client.send(pkt)
        net.run()
        assert victim.received_packets == 0
        assert sos.rejected_at_soap == 1

    def test_direct_traffic_dropped_at_perimeter(self):
        """Even *legitimate* direct traffic dies — the overlay's collateral."""
        net, victim, client, attacker, sos = self._overlay()
        client.send(Packet.udp(client.address, victim.address, kind="legit"))
        attacker.send(Packet.udp(attacker.address, victim.address, kind="attack"))
        net.run()
        assert victim.received_packets == 0
        assert sos.perimeter_drops == 2

    def test_flood_blocked_but_crosses_network(self):
        net, victim, client, attacker, sos = self._overlay()
        flood = DirectFlood(net, [attacker], victim, rate_pps=100.0,
                            duration=0.3, spoof="none", seed=1)
        flood.launch()
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 0
        # but the attack still burned transport resources en route
        assert net.byte_hops_by_kind["attack"] > 0

    def test_stretch_at_least_one(self):
        net, victim, client, attacker, sos = self._overlay()
        assert sos.stretch(client) >= 1.0

    def test_authorized_compromised_client_defeats_perimeter(self):
        net, victim, client, attacker, sos = self._overlay()
        sos.authorize(attacker)
        pkt = sos.overlay_packet(attacker, Packet.udp(attacker.address, victim.address, kind="attack"))
        attacker.send(pkt)
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 1


class TestI3Defense:
    def _i3(self, **kw):
        net, victim, client, attacker, stubs = base_net(seed=4)
        i3 = I3Defense(victim, i3_asns=stubs[3:5], **kw)
        i3.deploy(net)
        return net, victim, client, attacker, i3

    def test_needs_nodes(self):
        net, victim, *_ = base_net()
        with pytest.raises(MitigationError):
            I3Defense(victim, i3_asns=[])

    def test_trigger_relay_delivers(self):
        net, victim, client, attacker, i3 = self._i3()
        pkt = i3.trigger_packet(client, Packet.udp(client.address, victim.address, kind="legit"))
        client.send(pkt)
        net.run()
        assert victim.received_by_kind.get("legit", 0) == 1
        assert i3.relayed == 1

    def test_direct_attack_blocked_at_perimeter_only(self):
        """ip_already_known: attack still crosses the Internet and loads
        the victim's edge — the paper's 'how do you hide a known IP?'."""
        net, victim, client, attacker, i3 = self._i3(ip_already_known=True)
        flood = DirectFlood(net, [attacker], victim, rate_pps=100.0,
                            duration=0.3, spoof="none", seed=2)
        flood.launch()
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 0
        assert i3.perimeter_drops > 0
        assert net.byte_hops_by_kind["attack"] > 0  # resources still wasted

    def test_nonswitched_legit_client_cut_off(self):
        net, victim, client, attacker, i3 = self._i3()
        client.send(Packet.udp(client.address, victim.address, kind="legit"))
        net.run()
        assert victim.received_packets == 0

    def test_stretch(self):
        net, victim, client, attacker, i3 = self._i3()
        assert i3.stretch(client) >= 1.0

    def test_trigger_requires_deploy(self):
        net, victim, client, attacker, stubs = base_net()
        i3 = I3Defense(victim, i3_asns=stubs[3:4])
        with pytest.raises(MitigationError):
            i3.trigger_packet(client, Packet.udp(client.address, victim.address))


class TestLastHopFilter:
    def _setup(self, capacity=100.0):
        net, victim, client, attacker, stubs = base_net(seed=6)
        # rule: drop UDP to port 53 (the flood's default destination port)
        lh = LastHopFilter(victim, lambda p: p.proto is Protocol.UDP and p.dport == 53,
                           processing_capacity_pps=capacity)
        lh.deploy(net)
        return net, victim, client, attacker, lh

    def test_configure_before_attack_succeeds(self):
        net, victim, client, attacker, lh = self._setup()
        assert lh.try_configure()
        assert lh.configured
        attacker.send(Packet.udp(attacker.address, victim.address, kind="attack"))
        client.send(Packet.udp(client.address, victim.address, dport=80, kind="legit"))
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 0
        assert victim.received_by_kind.get("legit", 0) == 1
        assert lh.dropped == 1

    def test_configure_under_overload_fails(self):
        """The paper's open question, answered in the negative."""
        net, victim, client, attacker, lh = self._setup(capacity=50.0)
        flood = DirectFlood(net, [attacker], victim, rate_pps=2000.0,
                            duration=0.5, spoof="none", seed=3)
        flood.launch()

        outcome = {}

        def attempt():
            outcome["ok"] = lh.try_configure()

        net.sim.schedule_at(0.3, attempt)  # mid-attack
        net.run()
        assert outcome["ok"] is False
        assert lh.failed_attempts == 1
        assert not lh.configured


    def test_deploy_required(self):
        net, victim, client, attacker, stubs = base_net()
        lh = LastHopFilter(victim, lambda p: True)
        with pytest.raises(MitigationError):
            lh.try_configure()
