"""Tests for the pushback baseline."""

import pytest

from repro.attack import AttackScenario, DirectFlood
from repro.errors import MitigationError
from repro.mitigation import Pushback, PushbackConfig
from repro.net import LinkParams, Network, TopologyBuilder
from repro.scenario import AttackSpec
from repro.util.units import Mbps


def heavy_flood(spoof="none", seed=1, agents=8, rate=2000.0):
    net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=seed))
    kind = "direct-spoofed" if spoof == "random" else "direct-unspoofed"
    sc = AttackScenario(net, AttackSpec(kind=kind, n_agents=agents,
                                        attack_rate_pps=rate, duration=0.6),
                        seed)
    return net, sc


class TestConfig:
    def test_invalid_config(self):
        with pytest.raises(MitigationError):
            PushbackConfig(check_interval=0.0)
        with pytest.raises(MitigationError):
            PushbackConfig(max_depth=-1)


class TestDetectionAndLimiting:
    def test_triggers_on_congestion(self):
        net, sc = heavy_flood(spoof="none")
        pb = Pushback()
        pb.deploy(net, net.topology.as_numbers)
        sc.run()
        assert pb.activations > 0
        assert any(pb.limits.values())
        assert pb.rate_limited_drops > 0

    def test_no_trigger_without_congestion(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=2))
        sc = AttackScenario(net, AttackSpec(kind="direct-unspoofed", n_agents=1,
                                            attack_rate_pps=10.0,
                                            duration=0.4), 2)
        pb = Pushback()
        pb.deploy(net, net.topology.as_numbers)
        sc.run()
        assert pb.activations == 0

    def test_identifies_true_agents_when_unspoofed(self):
        net, sc = heavy_flood(spoof="none", seed=3)
        pb = Pushback()
        pb.deploy(net, net.topology.as_numbers)
        sc.run()
        agent_asns = {a.asn for a in sc.agents}
        identified = pb.identified_asns()
        assert identified
        assert identified <= agent_asns  # no innocents named

    def test_misidentifies_under_spoofing(self):
        """With random spoofed sources the aggregates point at innocents."""
        net, sc = heavy_flood(spoof="random", seed=4)
        pb = Pushback()
        pb.deploy(net, net.topology.as_numbers)
        sc.run()
        agent_asns = {a.asn for a in sc.agents}
        identified = pb.identified_asns()
        assert identified  # it does act...
        assert identified - agent_asns  # ...but names at least one innocent AS

    def test_reduces_attack_at_victim_but_with_collateral(self):
        """Pushback cuts the unspoofed flood, but legit clients sharing an
        aggregate's prefix get rate-limited too (the paper's collateral)."""
        base_net, base_sc = heavy_flood(spoof="none", seed=5)
        base = base_sc.run()
        pb_net, pb_sc = heavy_flood(spoof="none", seed=5)
        pb = Pushback(PushbackConfig(top_aggregates=4, limit_fraction=0.02))
        pb.deploy(pb_net, pb_net.topology.as_numbers)
        protected = pb_sc.run()
        assert (protected.attack_packets_at_victim
                < 0.8 * base.attack_packets_at_victim)
        assert pb.rate_limited_drops > 0
        # limits target real agent ASes (sources are genuine here)
        assert pb.identified_asns() <= {a.asn for a in pb_sc.agents}


class TestPropagation:
    def test_stops_at_non_deploying_router(self):
        """Contiguity requirement: a gap halts upstream propagation."""
        net = Network(TopologyBuilder.line(6))
        agent = net.add_host(0, access=LinkParams(bandwidth=Mbps(1000),
                                                  delay=0.001,
                                                  buffer_bytes=10**7))
        victim = net.add_host(5)
        flood = DirectFlood(net, [agent], victim, rate_pps=12_000.0,
                            duration=0.6, spoof="none", seed=1)
        # AS3 does not deploy: propagation from AS5/AS4 must stop there
        pb = Pushback(PushbackConfig(max_depth=5))
        pb.deploy(net, [1, 2, 4, 5], until=1.0)
        flood.launch()
        net.run(until=1.2)
        assert any(pb.limits.values())
        limited = set(pb.limits)
        assert 3 not in limited
        assert 2 not in limited and 1 not in limited  # behind the gap

    def test_depth_limit(self):
        net = Network(TopologyBuilder.line(6))
        agent = net.add_host(0, access=LinkParams(bandwidth=Mbps(1000),
                                                  delay=0.001,
                                                  buffer_bytes=10**7))
        victim = net.add_host(5)
        flood = DirectFlood(net, [agent], victim, rate_pps=12_000.0,
                            duration=0.6, spoof="none", seed=1)
        pb = Pushback(PushbackConfig(max_depth=1))
        pb.deploy(net, net.topology.as_numbers, until=1.0)
        flood.launch()
        net.run(until=1.2)
        limited = set(pb.limits)
        # congestion appears at the victim's AS (5); depth 1 reaches AS 4
        assert limited <= {4, 5}
