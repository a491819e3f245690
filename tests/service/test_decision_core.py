"""Tests for the engine-agnostic decision core (service/core.py).

The core is exercised here standalone, with registry-free
:class:`~repro.obs.metrics.Counter` objects — the device-side behaviour it was carved out
of stays pinned by tests/core/test_device.py and test_flow_cache.py,
which now run through the delegation.
"""

import pickle

import pytest

from repro.core import (
    AdaptiveDevice,
    ComponentGraph,
    DeviceContext,
    NetworkUser,
    OwnershipRegistry,
)
from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    PrefixBlacklist,
    Verdict,
)
from repro.errors import DeploymentError, SafetyViolation
from repro.net import ASRole, IPv4Address, Packet, Prefix, Protocol
from repro.obs.metrics import Counter
from repro.service.core import DecisionCore

A = IPv4Address.parse

CTX = DeviceContext(asn=1, role=ASRole.STUB,
                    local_prefix=Prefix.parse("192.168.0.0/16"))


def make_core(**kwargs):
    registry = OwnershipRegistry()
    acme = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
    registry.register(acme)
    return DecisionCore(CTX, registry, **kwargs), acme


def drop_udp_graph(name="g"):
    g = ComponentGraph(name)
    g.chain(HeaderFilter("udp", HeaderMatch(proto=Protocol.UDP)))
    return g


class TestConstruction:
    def test_bad_stage_order_rejected(self):
        registry = OwnershipRegistry()
        with pytest.raises(DeploymentError):
            DecisionCore(CTX, registry, stage_order="sideways")

    def test_default_counters_are_standalone_counters(self):
        core, _ = make_core()
        assert isinstance(core.m_redirected, Counter)
        assert core.m_redirected.value == 0

    def test_injected_counters_are_used(self):
        cell = Counter()
        core, acme = make_core(counters={"flow_cache_misses": cell})
        core.wants(Packet.udp(A("10.1.0.1"), A("10.2.0.1")))
        assert cell.value == 1


class TestManagement:
    def test_install_requires_a_graph(self):
        core, acme = make_core()
        with pytest.raises(DeploymentError):
            core.install(acme)

    def test_set_active_unknown_user(self):
        core, _ = make_core()
        with pytest.raises(DeploymentError):
            core.set_active("nobody", True)

    def test_rule_count(self):
        core, acme = make_core()
        core.install(acme, src_graph=drop_udp_graph("s"),
                     dst_graph=drop_udp_graph("d"))
        assert core.rule_count() == 2


class TestFlowCache:
    def test_hits_and_misses(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        pkt = Packet.udp(A("10.8.0.1"), A("10.1.0.1"))
        assert core.wants(pkt)
        assert core.wants(pkt)
        assert core.m_fc_misses.value == 1
        assert core.m_fc_hits.value == 1

    def test_lru_eviction_respects_capacity(self):
        core, acme = make_core(flow_cache_capacity=2)
        core.install(acme, dst_graph=drop_udp_graph())
        for i in range(4):
            core.wants(Packet.udp(A(f"10.8.0.{i + 1}"), A("10.1.0.1")))
        assert len(core.flow_cache) == 2

    def test_registry_change_invalidates(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        core.wants(Packet.udp(A("10.8.0.1"), A("10.1.0.1")))
        assert len(core.flow_cache) == 1
        core.registry.register(
            NetworkUser("globex", prefixes=[Prefix.parse("10.2.0.0/16")]))
        assert len(core.synced_cache()) == 0

    def test_unpickled_protocol_hits_the_same_entry(self):
        # Protocol hashes by identity; unpickling returns the same member
        proto = pickle.loads(pickle.dumps(Protocol.UDP))
        assert proto is Protocol.UDP and hash(proto) == hash(Protocol.UDP)
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        src, dst = A("10.8.0.1").value, A("10.1.0.1").value
        entry = core.flow_entry(src, dst, Protocol.UDP, 53)
        assert core.flow_entry(src, dst, proto, 53) is entry
        assert (core.m_fc_misses.value, core.m_fc_hits.value) == (1, 1)

    def test_pickled_packet_hits_wants(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        pkt = Packet.udp(A("10.8.0.1"), A("10.1.0.1"), dport=53)
        assert core.wants(pkt)
        assert core.wants(pickle.loads(pickle.dumps(pkt)))
        assert (core.m_fc_misses.value, core.m_fc_hits.value) == (1, 1)

    def test_inactive_service_not_wanted_until_reactivated(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        pkt = Packet.udp(A("10.8.0.1"), A("10.1.0.1"))
        assert core.wants(pkt)
        core.set_active("acme", False)
        assert not core.wants(pkt)
        core.set_active("acme", True)
        assert core.wants(pkt)


class TestPipeline:
    def test_process_drops_through_installed_graph(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        out = core.process(Packet.udp(A("10.8.0.1"), A("10.1.0.1")), 0.0, None)
        assert out is None
        assert core.m_redirected.value == 1
        assert core.m_dropped.value == 1

    def test_unfiltered_packet_passes(self):
        core, acme = make_core()
        core.install(acme, dst_graph=drop_udp_graph())
        pkt = Packet.tcp_syn(A("10.8.0.1"), A("10.1.0.1"))
        assert core.process(pkt, 0.0, None) is pkt
        assert core.m_dropped.value == 0

    def test_graph_mutated_after_install_runs_the_installed_program(self):
        """The core runs the program it compiled (and vetted) at install:
        a later edit to the graph changes nothing until it is installed
        again."""
        core, acme = make_core()
        graph = ComponentGraph("g")
        graph.chain(HeaderFilter("rst", HeaderMatch(proto=Protocol.TCP)))
        core.install(acme, dst_graph=graph)
        graph.add(HeaderFilter("udp", HeaderMatch(proto=Protocol.UDP)))
        graph.connect("rst", "udp")

        def udp():
            return Packet.udp(A("10.8.0.1"), A("10.1.0.1"))

        assert core.process(udp(), 0.0, None) is not None
        assert core.rule_count() == 2  # read from the graph, as mutated
        core.install(acme, dst_graph=graph)
        assert core.process(udp(), 0.0, None) is None

    def test_stage_order_reversal(self):
        """dst-first runs the destination owner's graph before the source
        owner's — the E13 ablation knob, honoured core-side."""
        order = []

        class Probe(Component):
            capabilities = Capabilities()

            def process(self, packet, ctx):
                order.append(ctx.stage)
                return Verdict.PASS

        registry = OwnershipRegistry()
        src_user = NetworkUser("s", prefixes=[Prefix.parse("10.1.0.0/16")])
        dst_user = NetworkUser("d", prefixes=[Prefix.parse("10.2.0.0/16")])
        registry.register(src_user)
        registry.register(dst_user)
        core = DecisionCore(CTX, registry, stage_order="dst-first")
        sg = ComponentGraph("sg")
        sg.add(Probe("p1"))
        dg = ComponentGraph("dg")
        dg.add(Probe("p2"))
        core.install(src_user, src_graph=sg)
        core.install(dst_user, dst_graph=dg)
        core.process(Packet.udp(A("10.1.0.1"), A("10.2.0.1")), 0.0, None)
        assert order == ["dest", "source"]


class LyingMutator(Component):
    """Declares itself benign but rewrites the destination address."""

    capabilities = Capabilities()

    def process(self, packet, ctx):
        packet.dst = A("10.9.9.9")
        return Verdict.PASS


class TestSafetyContainment:
    def make_lying_core(self, strict):
        core, acme = make_core(strict=strict)
        g = ComponentGraph("lying")
        g.add(LyingMutator("liar"))
        core.install(acme, dst_graph=g)
        return core

    def test_strict_core_raises_and_disables(self):
        core = self.make_lying_core(strict=True)
        with pytest.raises(SafetyViolation):
            core.process(Packet.udp(A("10.8.0.1"), A("10.1.0.1")), 0.0, None)
        assert core.services["acme"].disabled_for_violation
        assert core.m_safety_disables.value == 1

    def test_contained_core_restores_the_packet(self):
        core = self.make_lying_core(strict=False)
        pkt = Packet.udp(A("10.8.0.1"), A("10.1.0.1"))
        out = core.process(pkt, 0.0, None)
        assert out is pkt
        assert pkt.dst == A("10.1.0.1")
        assert core.services["acme"].disabled_for_violation

    def test_violation_in_the_source_stage_skips_the_destination_stage(self):
        """An owner of both ends whose source-stage graph lies: the first
        packet disables the service, so the same owner's destination
        stage never sees it, and later packets skip both stages."""
        core, acme = make_core(strict=False)
        src_graph = ComponentGraph("lying-src")
        src_graph.add(LyingMutator("liar"))
        dst_graph = drop_udp_graph("acme-dst")
        core.install(acme, src_graph=src_graph, dst_graph=dst_graph)
        for _ in range(2):
            pkt = Packet.udp(A("10.1.0.1"), A("10.1.0.2"))
            assert core.wants(pkt)
            assert core.process(pkt, 0.0, None) is pkt
            assert pkt.dst == A("10.1.0.2")
        assert core.services["acme"].disabled_for_violation
        assert core.m_safety_disables.value == 1
        assert (src_graph.packets_in, dst_graph.packets_in) == (1, 0)
        assert core.m_dropped.value == 0


class TestDeviceParity:
    """The delegating device and a standalone core agree exactly."""

    def world(self):
        registry = OwnershipRegistry()
        acme = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        registry.register(acme)
        graph = ComponentGraph("blk")
        graph.chain(PrefixBlacklist("b", [Prefix.parse("10.8.0.0/24")]))
        return registry, acme, graph

    def packets(self):
        return [
            Packet.udp(A("10.8.0.1"), A("10.1.0.1")),   # owned, blacklisted
            Packet.udp(A("10.7.0.1"), A("10.1.0.2")),   # owned, clean
            Packet.udp(A("172.16.0.1"), A("172.16.9.9")),  # unowned
            Packet.udp(A("10.8.0.1"), A("10.1.0.1")),   # repeat (cache hit)
        ]

    def test_same_verdicts_and_counters(self):
        registry, acme, graph = self.world()
        device = AdaptiveDevice(CTX, registry, strict=False)
        device.install(acme, dst_graph=graph)

        registry2 = OwnershipRegistry()
        acme2 = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        registry2.register(acme2)
        graph2 = ComponentGraph("blk")
        graph2.chain(PrefixBlacklist("b", [Prefix.parse("10.8.0.0/24")]))
        core = DecisionCore(CTX, registry2, strict=False)
        core.install(acme2, dst_graph=graph2)

        for pkt_d, pkt_c in zip(self.packets(), self.packets()):
            want_d = device.wants(pkt_d)
            want_c = core.wants(pkt_c)
            assert want_d == want_c
            if want_d:
                out_d = device.process(pkt_d, 0.0, None)
                out_c = core.process(pkt_c, 0.0, None)
                assert (out_d is None) == (out_c is None)
        assert device.redirected == core.m_redirected.value
        assert device.dropped == core.m_dropped.value
        assert device.flow_cache_hits == core.m_fc_hits.value
        assert device.flow_cache_misses == core.m_fc_misses.value

    def test_device_shares_one_services_dict_with_its_core(self):
        registry, acme, graph = self.world()
        device = AdaptiveDevice(CTX, registry)
        device.install(acme, dst_graph=graph)
        assert device.services is device._core.services
        assert "acme" in device._core.services
