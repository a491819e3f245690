"""Tests for protocol-misuse (RST/ICMP teardown) attacks."""

import pytest

from repro.attack import ConnectionPool, ProtocolMisuseAttack
from repro.errors import AttackConfigError
from repro.net import Network, Packet, TopologyBuilder
from repro.net.packet import ICMPType


def setup():
    net = Network(TopologyBuilder.hierarchical(2, 2, 3, seed=4))
    stubs = net.topology.stub_ases
    victim = net.add_host(stubs[0])
    peers = [net.add_host(a) for a in stubs[1:4]]
    attacker = net.add_host(stubs[4])
    pool = ConnectionPool(victim)
    for p in peers:
        pool.establish(p)
    return net, victim, peers, attacker, pool


class TestConnectionPool:
    def test_initial_state(self):
        net, victim, peers, attacker, pool = setup()
        assert pool.alive_count == 3
        assert pool.survival_fraction == 1.0

    def test_rst_from_peer_kills_connection(self):
        net, victim, peers, attacker, pool = setup()
        rst = Packet.tcp_rst(peers[0].address, victim.address)
        victim.receive(rst, None)
        assert pool.alive_count == 2
        killed = [c for c in pool.connections if not c.alive]
        assert killed[0].peer == int(peers[0].address)
        assert killed[0].killed_by == "rst"

    def test_rst_from_stranger_harmless(self):
        net, victim, peers, attacker, pool = setup()
        rst = Packet.tcp_rst(attacker.address, victim.address)
        victim.receive(rst, None)
        assert pool.alive_count == 3

    def test_icmp_unreachable_from_peer_kills_connection(self):
        net, victim, peers, attacker, pool = setup()
        victim.receive(Packet.icmp(peers[1].address, victim.address,
                                   ICMPType.HOST_UNREACHABLE), None)
        killed = [c for c in pool.connections if not c.alive]
        assert [c.peer for c in killed] == [int(peers[1].address)]
        assert killed[0].killed_by == "icmp"

    def test_icmp_unreachable_from_stranger_harmless(self):
        net, victim, peers, attacker, pool = setup()
        victim.receive(Packet.icmp(attacker.address, victim.address,
                                   ICMPType.HOST_UNREACHABLE), None)
        assert pool.alive_count == 3

    def test_ordinary_traffic_harmless(self):
        net, victim, peers, attacker, pool = setup()
        victim.receive(Packet.udp(peers[0].address, victim.address), None)
        victim.receive(Packet.tcp_syn(peers[0].address, victim.address), None)
        assert pool.alive_count == 3

    def test_one_rst_kills_one_connection(self):
        net, victim, peers, attacker, pool = setup()
        pool.establish(peers[0])  # second conn to same peer
        victim.receive(Packet.tcp_rst(peers[0].address, victim.address), None)
        assert pool.alive_count == 3  # only one of the four died


class TestProtocolMisuseAttack:
    def test_rst_flood_kills_connections(self):
        net, victim, peers, attacker, pool = setup()
        attack = ProtocolMisuseAttack(net, attacker, pool, rate_pps=50.0,
                                      duration=0.5, mode="rst", seed=1)
        attack.launch()
        net.run()
        assert pool.survival_fraction == 0.0

    def test_icmp_flood_kills_connections(self):
        net, victim, peers, attacker, pool = setup()
        attack = ProtocolMisuseAttack(net, attacker, pool, rate_pps=50.0,
                                      duration=0.5, mode="icmp", seed=1)
        attack.launch()
        net.run()
        assert pool.survival_fraction < 1.0

    def test_packets_are_spoofed_ground_truth(self):
        net, victim, peers, attacker, pool = setup()
        victim.record = True
        ProtocolMisuseAttack(net, attacker, pool, rate_pps=20.0, duration=0.3,
                             seed=2).launch()
        net.run()
        misuse = [p for _, p in victim.log if p.kind == "attack-misuse"]
        assert misuse
        assert all(p.spoofed for p in misuse)
        assert all(p.true_origin == attacker.name for p in misuse)

    def test_bad_mode(self):
        net, victim, peers, attacker, pool = setup()
        with pytest.raises(AttackConfigError):
            ProtocolMisuseAttack(net, attacker, pool, mode="syn").launch()

    def test_empty_pool_rejected(self):
        net, victim, peers, attacker, _ = setup()
        empty = ConnectionPool(net.add_host(net.topology.stub_ases[5]))
        with pytest.raises(AttackConfigError):
            ProtocolMisuseAttack(net, attacker, empty).launch()


class TestScenarioIntegration:
    def test_scenario_classes(self):
        from repro.attack import AttackScenario
        from repro.scenario import AttackSpec

        for kind in ("direct-spoofed", "direct-unspoofed", "reflector"):
            net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=6))
            spec = AttackSpec(kind=kind, n_agents=4, n_reflectors=3,
                              duration=0.3, attack_rate_pps=50.0)
            sc = AttackScenario(net, spec, 7)
            m = sc.run()
            assert m.attack_packets_at_victim > 0
            assert m.legit_sent > 0
            assert 0.0 <= m.legit_goodput <= 1.0

    def test_invalid_kind(self):
        from repro.scenario import AttackSpec, SpecError

        with pytest.raises(SpecError):
            AttackSpec(kind="nuclear")
        with pytest.raises(SpecError):
            AttackSpec(n_agents=0)

    def test_fluid_views(self):
        from repro.attack import AttackScenario
        from repro.net import FluidNetwork
        from repro.scenario import AttackSpec

        net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=6))
        sc = AttackScenario(net, AttackSpec(kind="direct-spoofed", n_agents=3),
                            8)
        flows = sc.as_flows()
        assert any(f.kind == "attack" for f in flows)
        assert any(f.kind == "legit" for f in flows)
        with pytest.raises(AttackConfigError):
            sc.fluid_reflector(FluidNetwork(net.topology))
