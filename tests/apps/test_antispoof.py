"""Tests for the Sec. 4.3 anti-spoofing application."""


from repro.attack import AttackScenario
from repro.core import DeploymentScope, NumberAuthority, Tcsp, TrafficControlService
from repro.core.apps import AntiSpoofApp, TcsAntiSpoofMitigation
from repro.net import Flow, FlowSet, FluidNetwork, Network, TopologyBuilder
from repro.scenario import AttackSpec


def world_with_attack(kind="reflector", seed=5):
    net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=3))
    spec = AttackSpec(kind=kind, n_agents=5, n_reflectors=4,
                      attack_rate_pps=300.0, duration=0.5)
    sc = AttackScenario(net, spec, seed)
    authority = NumberAuthority()
    tcsp = Tcsp("TCSP", authority, net)
    nms = tcsp.contract_isp("isp-all", net.topology.as_numbers)
    prefix = net.topology.prefix_of(sc.victim_asn)
    authority.record_allocation(prefix, "victim-co")
    user, cert = tcsp.register_user("victim-co", [prefix])
    svc = TrafficControlService(tcsp, user, cert, home_nms=nms)
    return net, sc, svc


class TestAntiSpoofApp:
    def test_stops_reflector_attack_at_source(self):
        """The headline Sec. 4.3 result: worldwide anti-spoofing rules kill
        the reflector attack before it reaches any reflector."""
        net, sc, svc = world_with_attack("reflector")
        app = AntiSpoofApp(svc)
        app.deploy()
        m = sc.run()
        assert m.attack_packets_at_victim == 0
        assert m.legit_goodput == 1.0
        assert m.byte_hops_attack == 0  # no wasted transport work
        assert app.dropped() > 0

    def test_stops_spoofed_direct_flood(self):
        net, sc, svc = world_with_attack("direct-spoofed")
        AntiSpoofApp(svc).deploy()
        m = sc.run()
        # only floods spoofing the *protected* prefix are caught; random
        # spoofing rarely hits it, so the direct flood mostly persists
        assert m.legit_goodput > 0.0  # sanity: network still works

    def test_zero_collateral(self):
        """Sec. 4.5: other parties' traffic is never affected."""
        net, sc, svc = world_with_attack("reflector")
        AntiSpoofApp(svc).deploy()
        m = sc.run()
        assert m.collateral_fraction == 0.0

    def test_partial_deployment_partially_effective(self):
        net_full, sc_full, svc_full = world_with_attack("reflector", seed=9)
        AntiSpoofApp(svc_full).deploy(DeploymentScope.stub_borders())
        full = sc_full.run()
        net_half, sc_half, svc_half = world_with_attack("reflector", seed=9)
        AntiSpoofApp(svc_half).deploy(
            DeploymentScope.stub_borders(fraction=0.3, seed=1))
        half = sc_half.run()
        assert full.attack_packets_at_victim <= half.attack_packets_at_victim


class TestTcsAntiSpoofMitigation:
    def test_packet_level_standalone(self):
        from repro.attack import ReflectorAttack

        net = Network(TopologyBuilder.hierarchical(2, 2, 5, seed=2))
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0])
        agents = [net.add_host(a) for a in stubs[1:3]]
        reflectors = [net.add_host(a) for a in stubs[3:6]]
        prefix = net.topology.prefix_of(victim.asn)
        mit = TcsAntiSpoofMitigation([prefix])
        mit.deploy(net, net.topology.as_numbers)
        ReflectorAttack(net, agents, reflectors, victim, rate_pps=100.0,
                        duration=0.3, seed=1).launch()
        net.run()
        assert victim.received_by_kind.get("attack-reflected", 0) == 0

    def test_transit_ases_skipped(self):
        net = Network(TopologyBuilder.hierarchical(2, 2, 3, seed=2))
        mit = TcsAntiSpoofMitigation([net.topology.prefix_of(0)])
        mit.deploy(net, net.topology.as_numbers)
        assert mit.deployed_asns == set(net.topology.stub_ases)

    def test_fluid_filter_semantics(self):
        topo = TopologyBuilder.hierarchical(2, 2, 5, seed=4)
        fluid = FluidNetwork(topo)
        stubs = topo.stub_ases
        victim_asn, agent_asn, refl_asn = stubs[0], stubs[1], stubs[2]
        mit = TcsAntiSpoofMitigation([topo.prefix_of(victim_asn)])
        filt = mit.fluid_filter(topo, [agent_asn])
        flows = FlowSet([
            # spoofed request claiming the victim: killed at source
            Flow(agent_asn, refl_asn, 1e6, kind="attack-request",
                 claimed_src_asn=victim_asn),
            # legit flow from the same AS: untouched
            Flow(agent_asn, refl_asn, 1e6, kind="legit"),
            # victim's own outbound traffic: untouched (it IS the owner)
            Flow(victim_asn, refl_asn, 1e6, kind="legit-victim"),
        ])
        r = fluid.evaluate(flows, filters=[filt])
        assert r.survival_fraction("attack-request") == 0.0
        assert r.survival_fraction("legit") == 1.0
        assert r.survival_fraction("legit-victim") == 1.0
