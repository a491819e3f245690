"""Tests for the amplifying-network structure."""

import pytest

from repro.attack import AmplifyingNetwork
from repro.errors import AttackConfigError
from repro.net import Network, TopologyBuilder


def make_hosts(n):
    net = Network(TopologyBuilder.star(max(3, n)))
    return net, [net.add_host(net.topology.stub_ases[i % len(net.topology.stub_ases)])
                 for i in range(n)]


class TestAmplifyingNetwork:
    def test_assign_agents_round_robin(self):
        net, hosts = make_hosts(8)
        s = AmplifyingNetwork(attacker=hosts[0], masters=hosts[1:3], agents=hosts[3:])
        s.assign_agents()
        assert [dst for src, dst in s.control_edges if src is hosts[1]] == [
            hosts[3], hosts[5], hosts[7]]
        assert [dst for src, dst in s.control_edges if src is hosts[2]] == [
            hosts[4], hosts[6]]
        # attacker edges present
        assert (hosts[0], hosts[1]) in s.control_edges

    def test_assign_without_masters_fails(self):
        net, hosts = make_hosts(3)
        s = AmplifyingNetwork(attacker=hosts[0], agents=hosts[1:])
        with pytest.raises(AttackConfigError):
            s.assign_agents()

    def test_control_depth(self):
        net, hosts = make_hosts(5)
        base = AmplifyingNetwork(attacker=hosts[0], masters=[hosts[1]], agents=[hosts[2]])
        assert base.control_depth == 2
        refl = AmplifyingNetwork(attacker=hosts[0], masters=[hosts[1]],
                                 agents=[hosts[2]], reflectors=[hosts[3]])
        assert refl.control_depth == 3

    def test_size(self):
        net, hosts = make_hosts(6)
        s = AmplifyingNetwork(attacker=hosts[0], masters=hosts[1:3], agents=hosts[3:6])
        assert s.size == 6

    def test_validate_rejects_duplicate_roles(self):
        net, hosts = make_hosts(3)
        s = AmplifyingNetwork(attacker=hosts[0], masters=[hosts[1]],
                              agents=[hosts[1], hosts[2]])
        with pytest.raises(AttackConfigError):
            s.validate()

    def test_validate_requires_agents(self):
        net, hosts = make_hosts(2)
        s = AmplifyingNetwork(attacker=hosts[0], masters=[hosts[1]])
        with pytest.raises(AttackConfigError):
            s.validate()

    def test_validate_agents_need_masters(self):
        net, hosts = make_hosts(2)
        s = AmplifyingNetwork(attacker=hosts[0], agents=[hosts[1]])
        with pytest.raises(AttackConfigError):
            s.validate()
