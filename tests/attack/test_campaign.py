"""Tests for multi-phase campaigns and the timeline sampler."""

import pytest

from repro.attack import Campaign, CampaignPhase, ConnectionPool
from repro.errors import AttackConfigError
from repro.net import Network, TopologyBuilder


def build_world(seed=12):
    net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=seed))
    stubs = net.topology.stub_ases
    victim = net.add_host(stubs[0])
    agents = [net.add_host(a) for a in stubs[1:4]]
    reflectors = [net.add_host(a) for a in stubs[4:7]]
    return net, victim, agents, reflectors, stubs


class TestCampaignPhase:
    def test_invalid_kind(self):
        with pytest.raises(AttackConfigError):
            CampaignPhase("nuke", start=0.0, duration=1.0)

    def test_invalid_timing(self):
        with pytest.raises(AttackConfigError):
            CampaignPhase("reflector", start=-1.0, duration=1.0)
        with pytest.raises(AttackConfigError):
            CampaignPhase("reflector", start=0.0, duration=0.0)

    def test_end(self):
        phase = CampaignPhase("reflector", start=1.0, duration=0.5)
        assert phase.end == 1.5


class TestCampaign:
    def test_needs_phases(self):
        net, victim, agents, reflectors, stubs = build_world()
        with pytest.raises(AttackConfigError):
            Campaign(net, victim, agents, reflectors, phases=[])

    def test_phases_execute_in_their_windows(self):
        net, victim, agents, reflectors, stubs = build_world()
        campaign = Campaign(net, victim, agents, reflectors, phases=[
            CampaignPhase("direct-unspoofed", start=0.1, duration=0.3,
                          rate_pps=100.0, label="flood"),
            CampaignPhase("reflector", start=0.7, duration=0.3,
                          rate_pps=100.0, label="bounce"),
        ], seed=1)
        timeline = campaign.run()
        # attack present in both windows, absent in the gap
        assert timeline.attack_rate_during(0.1, 0.4) > 50
        assert timeline.attack_rate_during(0.75, 1.0) > 50
        assert timeline.attack_rate_during(0.5, 0.65) < 20

    def test_phase_report_labels(self):
        net, victim, agents, reflectors, stubs = build_world()
        campaign = Campaign(net, victim, agents, reflectors, phases=[
            CampaignPhase("direct-unspoofed", start=0.1, duration=0.2,
                          rate_pps=50.0, label="alpha"),
        ], seed=1)
        campaign.run()
        report = campaign.phase_report()
        assert report[0][0] == "alpha"
        assert report[0][1] > 0

    def test_reflector_phase_requires_reflectors(self):
        net, victim, agents, _, stubs = build_world()
        campaign = Campaign(net, victim, agents, [], phases=[
            CampaignPhase("reflector", start=0.0, duration=0.1),
        ])
        with pytest.raises(AttackConfigError):
            campaign.launch()

    def test_misuse_phase_requires_pool(self):
        net, victim, agents, reflectors, stubs = build_world()
        campaign = Campaign(net, victim, agents, reflectors, phases=[
            CampaignPhase("rst-misuse", start=0.0, duration=0.1),
        ])
        with pytest.raises(AttackConfigError):
            campaign.launch()

    def test_misuse_phase_kills_connections(self):
        net, victim, agents, reflectors, stubs = build_world()
        pool = ConnectionPool(victim)
        peers = [net.add_host(stubs[7]) for _ in range(3)]
        for p in peers:
            pool.establish(p)
        campaign = Campaign(net, victim, agents, reflectors, phases=[
            CampaignPhase("rst-misuse", start=0.05, duration=0.3,
                          rate_pps=60.0),
        ], seed=2)
        campaign.pool = pool
        campaign.run()
        assert pool.alive_count < 3

    def test_peak_attack_rate(self):
        net, victim, agents, reflectors, stubs = build_world()
        campaign = Campaign(net, victim, agents, reflectors, phases=[
            CampaignPhase("direct-unspoofed", start=0.1, duration=0.3,
                          rate_pps=200.0),
        ], seed=3)
        timeline = campaign.run()
        assert max(timeline.attack_pps) >= timeline.attack_rate_during(0.1, 0.4)
