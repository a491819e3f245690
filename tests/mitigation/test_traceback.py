"""Tests for PPM and SPIE traceback."""

import pytest

from repro.attack import AttackScenario
from repro.errors import MitigationError
from repro.mitigation import PPMTraceback, SpieTraceback, TracebackFilter
from repro.mitigation.traceback import MarkingCollector
from repro.net import Network, Packet, TopologyBuilder
from repro.scenario import AttackSpec


def run_scenario(kind, seed=5, **cfg_kw):
    net = Network(TopologyBuilder.hierarchical(2, 2, 6, seed=3))
    spec = AttackSpec(kind=kind, n_agents=5, n_reflectors=4,
                      attack_rate_pps=400.0, duration=0.6, **cfg_kw)
    sc = AttackScenario(net, spec, seed)
    return net, sc


class TestPPM:
    def test_invalid_probability(self):
        with pytest.raises(MitigationError):
            PPMTraceback(p=0.0)
        with pytest.raises(MitigationError):
            PPMTraceback(p=1.5)

    def test_direct_unspoofed_identifies_agent_ases(self):
        net, sc = run_scenario("direct-unspoofed")
        ppm = PPMTraceback(p=0.1, seed=1)
        ppm.deploy(net, net.topology.as_numbers)
        col = MarkingCollector()
        sc.victim.add_responder(col.on_packet)
        sc.run()
        identified = PPMTraceback.identified_source_asns(col, min_count=2)
        agent_asns = {a.asn for a in sc.agents}
        assert identified
        assert identified <= agent_asns

    def test_direct_spoofed_still_finds_true_paths(self):
        """PPM's strength: markings come from routers, not source fields."""
        net, sc = run_scenario("direct-spoofed")
        ppm = PPMTraceback(p=0.1, seed=1)
        ppm.deploy(net, net.topology.as_numbers)
        col = MarkingCollector()
        sc.victim.add_responder(col.on_packet)
        sc.run()
        identified = PPMTraceback.identified_source_asns(col, min_count=2)
        agent_asns = {a.asn for a in sc.agents}
        assert identified
        assert identified <= agent_asns

    def test_reflector_attack_identifies_reflectors_not_agents(self):
        """The paper's key negative result (Sec. 3.1): traceback yields
        'a wrong attack source - the reflectors'."""
        net, sc = run_scenario("reflector")
        ppm = PPMTraceback(p=0.1, seed=1)
        ppm.deploy(net, net.topology.as_numbers)
        col = MarkingCollector()
        sc.victim.add_responder(col.on_packet)
        sc.run()
        identified = PPMTraceback.identified_source_asns(col, min_count=2)
        reflector_asns = {r.asn for r in sc.reflectors}
        agent_only_asns = {a.asn for a in sc.agents} - reflector_asns
        assert identified
        assert identified <= reflector_asns
        assert not (identified & agent_only_asns)

    def test_marking_never_drops(self):
        net, sc = run_scenario("direct-unspoofed")
        PPMTraceback(p=0.5, seed=2).deploy(net, net.topology.as_numbers)
        m = sc.run()
        assert m.attack_dropped_by_filters == 0

    def test_reconstruct_min_count_filters_noise(self):
        col = MarkingCollector()
        col.markings[(1, 2, 0)] = 10
        col.markings[(7, 8, 3)] = 1  # noise
        edges = PPMTraceback.reconstruct(col, min_count=2)
        assert (1, 2) in edges and (7, 8) not in edges

    def test_collector_ignores_legit(self):
        col = MarkingCollector()

        class H:  # minimal host stand-in
            pass

        pkt = Packet.udp(*(2 * [__import__("repro.net", fromlist=["IPv4Address"]).IPv4Address(1)]))
        pkt.kind = "legit"
        pkt.marking = (1, 2, 0)
        col.on_packet(pkt, H(), 0.0)
        assert not col.markings


class TestSPIE:
    def test_invalid_parameters(self):
        with pytest.raises(MitigationError):
            SpieTraceback(window=0.0)

    def test_traces_direct_packet_to_agent_as(self):
        net, sc = run_scenario("direct-spoofed")
        spie = SpieTraceback()
        spie.deploy(net, net.topology.as_numbers)
        sc.victim.record = True
        sc.run()
        pkt = next(p for _, p in sc.victim.log if p.kind == "attack")
        q = spie.trace(pkt, sc.victim_asn)
        assert q.complete
        true_agent_asn = next(a.asn for a in sc.agents if a.name == pkt.true_origin)
        assert q.origin_asn == true_agent_asn

    def test_reflected_packet_traces_to_reflector(self):
        net, sc = run_scenario("reflector")
        spie = SpieTraceback()
        spie.deploy(net, net.topology.as_numbers)
        sc.victim.record = True
        sc.run()
        pkt = next(p for _, p in sc.victim.log if p.kind == "attack-reflected")
        q = spie.trace(pkt, sc.victim_asn)
        reflector_asns = {r.asn for r in sc.reflectors}
        assert q.origin_asn in reflector_asns  # trace dies at the reflector

    def test_untraced_packet(self):
        net, sc = run_scenario("direct-unspoofed")
        spie = SpieTraceback()
        spie.deploy(net, net.topology.as_numbers)
        sc.run()
        ghost = Packet.udp(sc.victim.address, sc.victim.address)
        q = spie.trace(ghost, sc.victim_asn)
        assert q.origin_asn is None
        assert not q.complete

    def test_trace_requires_deploy(self):
        spie = SpieTraceback()
        with pytest.raises(MitigationError):
            spie.trace(Packet.udp(*(2 * [__import__("repro.net", fromlist=["IPv4Address"]).IPv4Address(1)])), 0)

    def test_window_paging_bounds_memory(self):
        net = Network(TopologyBuilder.line(2))
        spie = SpieTraceback(window=0.1, max_windows=3)
        spie.deploy(net, [0, 1])
        a = net.add_host(0)
        b = net.add_host(1)
        for i in range(20):
            net.sim.schedule_at(i * 0.1, a.send, Packet.udp(a.address, b.address))
        net.run()
        assert len(spie.stores[0]) <= 3


class TestTracebackFilter:
    def test_blocks_identified_sources_cutting_reflector_services(self):
        """Filtering 'identified' reflector ASes blocks their legit services
        too — the paper's counterproductive case."""
        net, sc = run_scenario("reflector")
        reflector_asns = [r.asn for r in sc.reflectors]
        tf = TracebackFilter(blocked_asns=reflector_asns)
        tf.deploy(net, [sc.victim_asn])
        # a legitimate service reply from a reflector AS host
        service = net.add_host(reflector_asns[0])
        sc.run()
        before = tf.dropped
        service.send(Packet.udp(service.address, sc.victim.address, kind="legit"))
        net.run()
        assert tf.dropped > before  # the legit reply died at the filter
        assert sc.victim.received_by_kind.get("attack-reflected", 0) == 0
