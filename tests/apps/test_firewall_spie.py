"""Tests for the distributed firewall and TCS-based SPIE traceback apps."""


from repro.attack import (
    AttackScenario,
    ConnectionPool,
    ProtocolMisuseAttack,
)
from repro.core import DeploymentScope, NumberAuthority, Tcsp, TrafficControlService
from repro.core.apps import (
    BLOCK_ICMP_UNREACH,
    BLOCK_RST,
    DistributedFirewallApp,
    SpieTracebackApp,
)
from repro.core.compose import RuleSpec
from repro.net import Network, Packet, TopologyBuilder
from repro.scenario import AttackSpec
from repro.scenario.tcs import build_tcs_world
from repro.service import core as service_core


def service_for_victim(net, victim_asn, user_id="victim-co"):
    authority = NumberAuthority()
    tcsp = Tcsp("TCSP", authority, net)
    nms = tcsp.contract_isp("isp-all", net.topology.as_numbers)
    prefix = net.topology.prefix_of(victim_asn)
    authority.record_allocation(prefix, user_id)
    user, cert = tcsp.register_user(user_id, [prefix])
    return TrafficControlService(tcsp, user, cert, home_nms=nms)


class TestDistributedFirewall:
    def _setup(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=6))
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        peers = [net.add_host(a) for a in stubs[1:3]]
        attacker = net.add_host(stubs[3])
        pool = ConnectionPool(victim)
        for p in peers:
            pool.establish(p)
        svc = service_for_victim(net, victim.asn)
        return net, victim, peers, attacker, pool, svc

    def test_rst_teardown_attack_filtered(self):
        """Sec. 4.3: protocol-misuse teardown packets are filtered out."""
        net, victim, peers, attacker, pool, svc = self._setup()
        fw = DistributedFirewallApp(svc, [BLOCK_RST, BLOCK_ICMP_UNREACH])
        fw.deploy()
        ProtocolMisuseAttack(net, attacker, pool, rate_pps=50.0,
                             duration=0.5, mode="rst", seed=1).launch()
        net.run()
        assert pool.survival_fraction == 1.0
        assert fw.dropped() > 0

    def test_each_installed_graph_is_lowered_once(self, monkeypatch):
        """The decision core's install is the one compile of a graph."""
        compiled, compile_policy = [], service_core.compile_policy

        def counting_compile(graph):
            compiled.append(graph.name)
            return compile_policy(graph)

        monkeypatch.setattr(service_core, "compile_policy", counting_compile)
        world = build_tcs_world(Network(TopologyBuilder.line(3)), service=True)
        DistributedFirewallApp(world.service, [BLOCK_RST]).deploy()
        assert compiled == [f"firewall:acme@AS{asn}" for asn in (0, 1, 2)]

    def test_without_firewall_connections_die(self):
        net, victim, peers, attacker, pool, svc = self._setup()
        ProtocolMisuseAttack(net, attacker, pool, rate_pps=50.0,
                             duration=0.5, mode="rst", seed=1).launch()
        net.run()
        assert pool.survival_fraction == 0.0

    def test_port_blocking_rule(self):
        net, victim, peers, attacker, pool, svc = self._setup()
        fw = DistributedFirewallApp(svc, [
            RuleSpec(action="drop", proto="udp", dport=53, label="block-udp-53")])
        fw.deploy()
        attacker.send(Packet.udp(attacker.address, victim.address, dport=53,
                                 kind="attack"))
        attacker.send(Packet.udp(attacker.address, victim.address, dport=80,
                                 kind="legit"))
        net.run()
        assert victim.received_by_kind.get("attack", 0) == 0
        assert victim.received_by_kind.get("legit", 0) == 1

    def test_firewall_only_affects_owner_traffic(self):
        """Scope confinement: the same RST between two *other* hosts flows."""
        net, victim, peers, attacker, pool, svc = self._setup()
        fw = DistributedFirewallApp(svc, [BLOCK_RST])
        fw.deploy()
        bystander = net.add_host(net.topology.stub_ases[1])
        attacker.send(Packet.tcp_rst(attacker.address, bystander.address,
                                     kind="other-rst"))
        net.run()
        assert bystander.received_by_kind.get("other-rst", 0) == 1

    def test_rate_limit_and_logging_options(self):
        net, victim, peers, attacker, pool, svc = self._setup()
        fw = DistributedFirewallApp(svc, [
            RuleSpec(action="log"), RuleSpec(action="rate-limit", rate_bps=1e9)])
        fw.deploy(DeploymentScope.explicit([victim.asn]))
        attacker.send(Packet.udp(attacker.address, victim.address))
        net.run()
        assert victim.received_packets == 1
        assert svc.read_logs()


class TestSpieTracebackApp:
    def test_traces_spoofed_packet_to_agent_as(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=3))
        spec = AttackSpec(kind="direct-spoofed", n_agents=4,
                          attack_rate_pps=100.0, duration=0.4)
        sc = AttackScenario(net, spec, 7)
        svc = service_for_victim(net, sc.victim_asn)
        app = SpieTracebackApp(svc)
        app.deploy()
        sc.victim.record = True
        sc.run()
        pkt = next(p for _, p in sc.victim.log if p.kind == "attack")
        result = app.trace(pkt, sc.victim_asn)
        true_asn = next(a.asn for a in sc.agents if a.name == pkt.true_origin)
        assert result.origin_asn == true_asn
        assert not result.coverage_gap

    def test_saw_negative(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=3))
        victim_asn = net.topology.stub_ases[0]
        svc = service_for_victim(net, victim_asn)
        app = SpieTracebackApp(svc)
        app.deploy()
        ghost = Packet.udp(net.add_host(victim_asn).address,
                           net.add_host(net.topology.stub_ases[1]).address)
        assert not app.saw(victim_asn, ghost)
        result = app.trace(ghost, victim_asn)
        assert result.origin_asn is None

    def test_partial_scope_has_coverage_gaps(self):
        net = Network(TopologyBuilder.line(5))
        victim_asn = 4
        svc = service_for_victim(net, victim_asn)
        app = SpieTracebackApp(svc)
        # deploy only near the victim: trace cannot reach the source AS
        app.deploy(DeploymentScope.explicit([3, 4]))
        src = net.add_host(0)
        victim = net.add_host(victim_asn, record=True)
        src.send(Packet.udp(src.address, victim.address))
        net.run()
        (_, pkt), = victim.log
        result = app.trace(pkt, victim_asn)
        assert result.origin_asn == 3  # the walk stops at the coverage edge
