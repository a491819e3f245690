"""Tests for component graphs and the Sec. 4.5 safety machinery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ComponentGraph, NetworkUser, SafetyMonitor, vet_component
from repro.core.components import (
    Capabilities,
    Component,
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PayloadScrubber,
    PrefixBlacklist,
    Verdict,
)
from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS, PacketSnapshot
from repro.errors import ComponentGraphError, SafetyViolation, VettingError
from repro.net import IPv4Address, Packet, Prefix, Protocol
from repro.policy import compile_policy

A = IPv4Address.parse
P = Prefix.parse
OWNER = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])


def ctx(now=0.0):
    return ComponentContext(now=now, asn=1, is_transit=False,
                            local_prefix=P("10.9.0.0/16"), stage="dest",
                            owner=OWNER)


class PassThrough(Component):
    def process(self, packet, ctx):
        return Verdict.PASS


class DropAll(Component):
    capabilities = Capabilities(may_drop=True)

    def process(self, packet, ctx):
        return Verdict.DROP


class TestGraphBuilding:
    def test_chain_processes_in_order(self):
        g = ComponentGraph("g")
        seen = []

        class Tag(Component):
            def process(self, packet, ctx):
                seen.append(self.name)
                return Verdict.PASS

        g.chain(Tag("a"), Tag("b"), Tag("c"))
        assert compile_policy(g).process(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx()) is Verdict.PASS
        assert seen == ["a", "b", "c"]

    def test_duplicate_names_rejected(self):
        g = ComponentGraph()
        g.add(PassThrough("x"))
        with pytest.raises(ComponentGraphError):
            g.add(PassThrough("x"))

    def test_connect_unknown_component(self):
        g = ComponentGraph()
        g.add(PassThrough("x"))
        with pytest.raises(ComponentGraphError):
            g.connect("x", "ghost")

    def test_empty_graph_invalid(self):
        g = ComponentGraph()
        with pytest.raises(ComponentGraphError):
            compile_policy(g)

    def test_cycle_detected(self):
        g = ComponentGraph()
        g.chain(PassThrough("a"), PassThrough("b"))
        g.connect("b", "a", Verdict.PASS)
        with pytest.raises(ComponentGraphError):
            compile_policy(g)

    def test_unreachable_component_detected(self):
        g = ComponentGraph()
        g.add(PassThrough("a"))
        g.add(PassThrough("orphan"))
        with pytest.raises(ComponentGraphError):
            compile_policy(g)

    def test_component_accessor(self):
        g = ComponentGraph()
        a = PassThrough("a")
        g.add(a)
        assert g.component("a") is a
        with pytest.raises(ComponentGraphError):
            g.component("nope")
        assert len(g) == 1


class TestGraphSemantics:
    def test_drop_is_sticky(self):
        """A post-drop logger observes but can never resurrect the packet."""
        g = ComponentGraph()
        dropper = DropAll("drop")
        logger = LoggerComponent("log")
        g.add(dropper)
        g.add(logger)
        g.connect("drop", "log", Verdict.DROP)
        verdict = compile_policy(g).process(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx())
        assert verdict is Verdict.DROP
        assert len(logger.entries) == 1  # it saw the doomed packet

    def test_branching_on_verdict(self):
        g = ComponentGraph()
        filt = HeaderFilter("f", HeaderMatch(proto=Protocol.ICMP))
        pass_log = LoggerComponent("pass-log")
        drop_log = LoggerComponent("drop-log")
        g.add(filt)
        g.add(pass_log)
        g.add(drop_log)
        g.connect("f", "pass-log", Verdict.PASS)
        g.connect("f", "drop-log", Verdict.DROP)
        program = compile_policy(g)
        program.process(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx())
        from repro.net import ICMPType

        program.process(Packet.icmp(A("1.1.1.1"), A("2.2.2.2"), ICMPType.ECHO_REQUEST), ctx())
        assert len(pass_log.entries) == 1
        assert len(drop_log.entries) == 1

    def test_counters(self):
        g = ComponentGraph()
        g.add(DropAll("d"))
        program = compile_policy(g)
        program.process(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx())
        program.process(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx())
        assert g.packets_in == 2
        assert g.packets_dropped == 2


class TestVetting:
    def test_benign_components_pass(self):
        for comp in (PassThrough("p"), DropAll("d"), PayloadScrubber(),
                     LoggerComponent(), PrefixBlacklist("b")):
            vet_component(comp)

    def test_forbidden_header_writes_rejected(self):
        class TtlRewriter(Component):
            capabilities = Capabilities(modifies_headers=frozenset({"ttl"}))

            def process(self, packet, ctx):
                return Verdict.PASS

        with pytest.raises(VettingError, match="forbidden"):
            vet_component(TtlRewriter("evil"))

    @pytest.mark.parametrize("field", ["src", "dst", "ttl"])
    def test_each_forbidden_field_rejected(self, field):
        class Rewriter(Component):
            capabilities = Capabilities(modifies_headers=frozenset({field}))

            def process(self, packet, ctx):
                return Verdict.PASS

        with pytest.raises(VettingError):
            vet_component(Rewriter("evil"))

    def test_benign_header_writes_allowed(self):
        class DscpMarker(Component):
            capabilities = Capabilities(modifies_headers=frozenset({"dscp"}))

            def process(self, packet, ctx):
                return Verdict.PASS

        vet_component(DscpMarker("ok"))

    def test_rate_amplifier_rejected(self):
        class Duplicator(Component):
            capabilities = Capabilities(max_outputs_per_input=2)

            def process(self, packet, ctx):
                return Verdict.PASS

        with pytest.raises(VettingError, match="rate"):
            vet_component(Duplicator("evil"))

    def test_byte_amplifier_rejected(self):
        class Inflater(Component):
            capabilities = Capabilities(max_size_ratio=2.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        with pytest.raises(VettingError, match="amplification"):
            vet_component(Inflater("evil"))

    def test_excessive_logging_budget_rejected(self):
        class Chatty(Component):
            capabilities = Capabilities(extra_traffic_bps=MAX_EXTRA_TRAFFIC_BPS * 2)

            def process(self, packet, ctx):
                return Verdict.PASS

        with pytest.raises(VettingError, match="side-channel"):
            vet_component(Chatty("chatty"))

    def test_vet_graph_checks_all_components(self):
        class Inflater(Component):
            capabilities = Capabilities(max_size_ratio=2.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        g = ComponentGraph()
        g.chain(PassThrough("ok"), Inflater("evil"))
        with pytest.raises(VettingError):
            compile_policy(g)

    def test_vet_graph_aggregate_budget(self):
        g = ComponentGraph()

        def make(i):
            class Budgeted(Component):
                capabilities = Capabilities(extra_traffic_bps=MAX_EXTRA_TRAFFIC_BPS)

                def process(self, packet, ctx):
                    return Verdict.PASS

            return Budgeted(f"b{i}")

        g.chain(make(0), make(1), make(2))
        with pytest.raises(VettingError, match="aggregates"):
            compile_policy(g)

    def test_vet_graph_validates_structure(self):
        g = ComponentGraph()
        with pytest.raises(ComponentGraphError):
            compile_policy(g)


class TestSafetyMonitor:
    def _pkt(self, size=100):
        return Packet.udp(A("10.1.0.1"), A("10.2.0.1"), size=size)

    def test_clean_pass(self):
        m = SafetyMonitor()
        pkt = self._pkt()
        before = m.note_in(pkt)
        m.check(before, pkt, "svc")
        assert m.conserving
        assert m.violations == 0

    def test_drop_is_conserving(self):
        m = SafetyMonitor()
        before = m.note_in(self._pkt())
        m.check(before, None, "svc")
        assert m.conserving

    def test_address_rewrite_detected(self):
        m = SafetyMonitor()
        pkt = self._pkt()
        before = m.note_in(pkt)
        pkt.dst = A("10.3.0.1")
        with pytest.raises(SafetyViolation, match="src/dst"):
            m.check(before, pkt, "svc")
        assert m.violations == 1

    def test_ttl_rewrite_detected(self):
        m = SafetyMonitor()
        pkt = self._pkt()
        before = m.note_in(pkt)
        pkt.ttl += 10
        with pytest.raises(SafetyViolation, match="TTL"):
            m.check(before, pkt, "svc")

    def test_size_growth_detected(self):
        m = SafetyMonitor()
        pkt = self._pkt(size=100)
        before = m.note_in(pkt)
        pkt.size = 200
        with pytest.raises(SafetyViolation, match="amplification"):
            m.check(before, pkt, "svc")

    def test_shrink_allowed(self):
        m = SafetyMonitor()
        pkt = self._pkt(size=100)
        before = m.note_in(pkt)
        pkt.size = 50
        m.check(before, pkt, "svc")
        assert m.bytes_out == 50

    def test_snapshot_of(self):
        pkt = self._pkt(size=77)
        snap = PacketSnapshot.of(pkt)
        assert snap.size == 77 and snap.ttl == pkt.ttl

    @given(sizes=st.lists(st.integers(min_value=20, max_value=1500), min_size=1, max_size=50),
           drop_pattern=st.lists(st.booleans(), min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_conservation_invariant_any_drop_pattern(self, sizes, drop_pattern):
        """Whatever subset of packets a (well-behaved) service drops, the
        monitor's conservation invariant holds."""
        m = SafetyMonitor()
        for i, size in enumerate(sizes):
            pkt = self._pkt(size=size)
            before = m.note_in(pkt)
            dropped = drop_pattern[i % len(drop_pattern)]
            m.check(before, None if dropped else pkt, "svc")
        assert m.conserving
        assert m.packets_out <= m.packets_in
        assert m.bytes_out <= m.bytes_in
