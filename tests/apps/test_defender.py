"""Tests for the reactive signature-based defender."""


from repro.attack import DirectFlood, ReflectorAttack
from repro.core import NumberAuthority, Tcsp, TrafficControlService
from repro.core.apps import ReactiveDefender
from repro.net import Network, Packet, TopologyBuilder


def build(seed=28, threshold=80.0):
    net = Network(TopologyBuilder.hierarchical(2, 2, 7, seed=seed))
    stubs = net.topology.stub_ases
    victim = net.add_host(stubs[0])
    authority = NumberAuthority()
    tcsp = Tcsp("TCSP", authority, net)
    tcsp.contract_isp("isp", net.topology.as_numbers)
    prefix = net.topology.prefix_of(victim.asn)
    authority.record_allocation(prefix, "victim-co")
    user, cert = tcsp.register_user("victim-co", [prefix])
    svc = TrafficControlService(tcsp, user, cert)
    defender = ReactiveDefender(svc, victim, threshold_pps=threshold)
    return net, victim, defender, stubs


class TestDetection:
    def test_udp_flood_triggers_firewall(self):
        net, victim, defender, stubs = build()
        agents = [net.add_host(a) for a in stubs[1:4]]
        DirectFlood(net, agents, victim, rate_pps=200.0, duration=0.4,
                    spoof="none", seed=1).launch()
        net.run(until=1.0)
        assert defender.detected("udp-flood")
        (action,) = [a for a in defender.actions if a.signature == "udp-flood"]
        assert action.devices > 0
        assert action.time < 0.3  # the attack starts at t = 0

    def test_reflection_triggers_antispoof(self):
        net, victim, defender, stubs = build()
        agents = [net.add_host(a) for a in stubs[1:4]]
        reflectors = [net.add_host(a) for a in stubs[4:7]]
        ReflectorAttack(net, agents, reflectors, victim, rate_pps=150.0,
                        duration=0.4, mode="dns", seed=2).launch()
        net.run(until=1.0)
        assert defender.detected("reflection")
        assert not defender.detected("udp-flood")  # correctly classified

    def test_rst_storm_triggers_teardown_rules(self):
        net, victim, defender, stubs = build()
        attacker = net.add_host(stubs[1])
        for i in range(20):
            net.sim.schedule_at(0.01 * i, attacker.send,
                                Packet.tcp_rst(attacker.address, victim.address,
                                               kind="attack-misuse"))
        net.run(until=1.0)
        assert defender.detected("rst-storm")

    def test_quiet_traffic_never_triggers(self):
        net, victim, defender, stubs = build()
        client = net.add_host(stubs[2])
        for i in range(20):
            net.sim.schedule_at(0.05 * i, client.send,
                                Packet.udp(client.address, victim.address,
                                           dport=80, kind="legit"))
        net.run(until=2.0)
        assert not defender.actions

    def test_each_signature_deploys_once(self):
        net, victim, defender, stubs = build()
        agents = [net.add_host(a) for a in stubs[1:4]]
        DirectFlood(net, agents, victim, rate_pps=400.0, duration=0.6,
                    spoof="none", seed=3).launch()
        net.run(until=1.2)
        assert len([a for a in defender.actions
                    if a.signature == "udp-flood"]) == 1

    def test_service_traffic_survives_udp_response(self):
        """The off-service UDP rule must spare the victim's port 80."""
        net, victim, defender, stubs = build()
        agents = [net.add_host(a) for a in stubs[1:4]]
        DirectFlood(net, agents, victim, rate_pps=300.0, duration=0.6,
                    spoof="none", seed=4).launch()
        client = net.add_host(stubs[5])
        sent = 8
        for i in range(sent):
            net.sim.schedule_at(0.3 + 0.05 * i, client.send,
                                Packet.udp(client.address, victim.address,
                                           dport=80, kind="legit"))
        net.run(until=1.5)
        assert defender.detected("udp-flood")
        assert victim.received_by_kind.get("legit", 0) == sent


class TestE15:
    def test_arms_race_shape(self):
        from repro.experiments import e15_arms_race
        from repro.experiments.common import ExperimentConfig

        table = e15_arms_race.run(ExperimentConfig(seed=42, scale=0.6))[0]
        phase_rows = table.rows[:3]
        for row in phase_rows:
            assert row[2] < row[1]  # defended < undefended in every phase
        conn_row = table.rows[3]
        assert conn_row[2] > conn_row[1]  # more connections survive defended
