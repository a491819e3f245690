"""Unit tests for the amplification metrics module."""


from repro.attack import AmplifyingNetwork, measure_amplification
from repro.net import Network, TopologyBuilder


def setup_world():
    net = Network(TopologyBuilder.star(6))
    stubs = net.topology.stub_ases
    hosts = [net.add_host(stubs[i % len(stubs)]) for i in range(5)]
    attacker, master, agent, reflector, victim = hosts
    structure = AmplifyingNetwork(attacker=attacker, masters=[master],
                                  agents=[agent], reflectors=[reflector],
                                  victim=victim)
    return net, structure, victim


class TestMeasureAmplification:
    def test_counts_attack_kinds_only(self):
        net, structure, victim = setup_world()
        victim.received_by_kind.update({"attack": 10, "attack-reflected": 5,
                                        "legit": 100})
        victim.received_bytes_by_kind.update({"attack": 1000,
                                              "attack-reflected": 500,
                                              "legit": 50_000})
        report = measure_amplification(structure, victim, control_packets=3,
                                       request_bytes_sent=300)
        assert report.attack_packets_at_victim == 15
        assert report.attack_bytes_at_victim == 1500
        assert report.rate_amplification == 5.0
        assert report.byte_amplification == 5.0
        assert report.traceback_depth == 3

    def test_zero_control_packets_infinite_amp(self):
        net, structure, victim = setup_world()
        victim.received_by_kind["attack"] = 7
        report = measure_amplification(structure, victim, control_packets=0,
                                       request_bytes_sent=100)
        assert report.rate_amplification == float("inf")

    def test_zero_request_bytes(self):
        net, structure, victim = setup_world()
        report = measure_amplification(structure, victim, control_packets=1,
                                       request_bytes_sent=0)
        assert report.byte_amplification == 0.0

    def test_depth_without_reflectors(self):
        net, structure, victim = setup_world()
        structure.reflectors = []
        report = measure_amplification(structure, victim, 1, 1)
        assert report.traceback_depth == 2
