"""End-to-end integration tests: full stacks wired together."""


from repro.attack import AttackScenario
from repro.core import (
    DeploymentScope,
    NumberAuthority,
    Tcsp,
    TrafficControlService,
)
from repro.core.apps import (
    AntiSpoofApp,
    DistributedFirewallApp,
    SpieTracebackApp,
)
from repro.core.compose import RuleSpec
from repro.net import Network, Packet, TopologyBuilder
from repro.scenario import AttackSpec


def full_world(seed=13, attack_kind="reflector"):
    """Topology + attack + TCSP + registered victim, ready to deploy."""
    net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=seed))
    sc = AttackScenario(net, AttackSpec(
        kind=attack_kind, n_agents=6, n_reflectors=5,
        attack_rate_pps=300.0, duration=0.5), seed)
    authority = NumberAuthority()
    tcsp = Tcsp("TCSP", authority, net)
    nms = tcsp.contract_isp("isp", net.topology.as_numbers)
    prefix = net.topology.prefix_of(sc.victim_asn)
    authority.record_allocation(prefix, "victim-co")
    user, cert = tcsp.register_user("victim-co", [prefix])
    svc = TrafficControlService(tcsp, user, cert, home_nms=nms)
    return net, sc, svc


class TestHeadlineScenario:
    """The paper's end-to-end story as one test."""

    def test_register_deploy_defend(self):
        net, sc, svc = full_world()
        AntiSpoofApp(svc).deploy()
        metrics = sc.run()
        assert metrics.attack_packets_at_victim == 0
        assert metrics.legit_goodput == 1.0
        assert metrics.collateral_fraction == 0.0
        assert metrics.byte_hops_attack == 0

    def test_defense_survives_tcsp_outage(self):
        """Deploy through the fallback path while the TCSP is down."""
        net, sc, svc = full_world(seed=14)
        svc.tcsp.reachable = False
        AntiSpoofApp(svc).deploy()
        assert svc.fallback_used == 1
        metrics = sc.run()
        assert metrics.attack_packets_at_victim == 0

    def test_deactivation_restores_attack(self):
        net, sc, svc = full_world(seed=15)
        AntiSpoofApp(svc).deploy()
        svc.set_active(False)
        metrics = sc.run()
        assert metrics.attack_packets_at_victim > 0


class TestMultiTenant:
    """Two users with services on the same devices never interfere."""

    def test_two_users_independent_rules(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=4))
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, net)
        tcsp.contract_isp("isp", net.topology.as_numbers)
        stubs = net.topology.stub_ases
        alice_host = net.add_host(stubs[0])
        bob_host = net.add_host(stubs[1])
        client = net.add_host(stubs[2])

        services = {}
        for name, host in (("alice", alice_host), ("bob", bob_host)):
            prefix = net.topology.prefix_of(host.asn)
            authority.record_allocation(prefix, name)
            user, cert = tcsp.register_user(name, [prefix])
            services[name] = TrafficControlService(tcsp, user, cert)
        # alice blocks UDP/53; bob blocks nothing
        fw = DistributedFirewallApp(services["alice"], [
            RuleSpec(action="drop", proto="udp", dport=53, label="block-udp-53")])
        fw.deploy(DeploymentScope.everywhere())
        client.send(Packet.udp(client.address, alice_host.address, dport=53,
                               kind="to-alice"))
        client.send(Packet.udp(client.address, bob_host.address, dport=53,
                               kind="to-bob"))
        net.run()
        assert alice_host.received_packets == 0   # alice's rule fired
        assert bob_host.received_by_kind["to-bob"] == 1  # bob untouched

    def test_same_packet_both_stages_different_owners(self):
        """alice -> bob traffic passes alice's src stage then bob's dst stage."""
        net = Network(TopologyBuilder.line(3))
        authority = NumberAuthority()
        tcsp = Tcsp("TCSP", authority, net)
        tcsp.contract_isp("isp", net.topology.as_numbers)
        alice_host = net.add_host(0)
        bob_host = net.add_host(2)
        svcs = {}
        for name, asn in (("alice", 0), ("bob", 2)):
            prefix = net.topology.prefix_of(asn)
            authority.record_allocation(prefix, name)
            user, cert = tcsp.register_user(name, [prefix])
            svcs[name] = TrafficControlService(tcsp, user, cert)
        # alice logs outbound; bob logs inbound
        alice_fw = DistributedFirewallApp(svcs["alice"], [RuleSpec(action="log")])
        svcs["alice"].deploy(DeploymentScope.explicit([1]),
                             src_graph_factory=alice_fw.graph_factory)
        bob_fw = DistributedFirewallApp(svcs["bob"], [RuleSpec(action="log")])
        bob_fw.deploy(DeploymentScope.explicit([1]))
        alice_host.send(Packet.udp(alice_host.address, bob_host.address))
        net.run()
        assert bob_host.received_packets == 1
        assert len(svcs["alice"].read_logs()) == 1
        assert len(svcs["bob"].read_logs()) == 1


class TestForensicsPipeline:
    def test_attack_then_trace_then_block(self):
        """Detect -> trace with TCS SPIE -> firewall the sources -> verify."""
        net, sc, svc = full_world(seed=16, attack_kind="direct-unspoofed")
        spie = SpieTracebackApp(svc)
        spie.deploy(DeploymentScope.everywhere())
        sc.victim.record = True
        sc.run()
        attack_pkts = [p for _, p in sc.victim.log if p.kind == "attack"]
        assert attack_pkts
        origins = {spie.trace(p, sc.victim_asn).origin_asn
                   for p in attack_pkts[:30]}
        origins.discard(None)
        agent_asns = {a.asn for a in sc.agents}
        assert origins <= agent_asns
        assert origins  # at least one source traced


class TestDeterminism:
    def test_identical_seeds_identical_outcomes(self):
        results = []
        for _ in range(2):
            net, sc, svc = full_world(seed=77)
            AntiSpoofApp(svc).deploy(
                DeploymentScope.stub_borders(fraction=0.5, seed=5))
            m = sc.run()
            results.append((m.attack_packets_at_victim, m.legit_sent,
                            m.legit_delivered, m.byte_hops_attack))
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        outcomes = set()
        for seed in (1, 2, 3):
            net, sc, svc = full_world(seed=seed)
            m = sc.run()
            outcomes.add((sc.victim_asn, m.attack_packets_at_victim))
        assert len(outcomes) > 1
