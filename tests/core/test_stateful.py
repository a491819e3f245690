"""Tests for stateful teardown filtering and timing-anomaly detection."""


from repro.core import NetworkUser, StatefulTeardownFilter, TimingAnomalyFilter, stateful
from repro.core.components import ComponentContext, Verdict
from repro.net import ICMPType, IPv4Address, Packet, Prefix

A = IPv4Address.parse
OWNER = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])


def ctx(now=0.0):
    return ComponentContext(now=now, asn=1, is_transit=False,
                            local_prefix=Prefix.parse("10.9.0.0/16"),
                            stage="dest", owner=OWNER)


PEER = A("10.5.0.1")
VICTIM = A("10.1.0.1")
STRANGER = A("10.7.0.9")


class TestStatefulTeardownFilter:
    def test_forged_rst_without_flow_dropped(self):
        f = StatefulTeardownFilter()
        rst = Packet.tcp_rst(PEER, VICTIM)
        assert f.process(rst, ctx(0.0)) is Verdict.DROP
        assert f.forged_dropped == 1

    def test_rst_from_live_flow_passes(self):
        f = StatefulTeardownFilter()
        data = Packet(src=PEER, dst=VICTIM, proto=__import__("repro.net", fromlist=["Protocol"]).Protocol.TCP,
                      sport=40000, dport=80)
        assert f.process(data, ctx(0.0)) is Verdict.PASS
        rst = Packet.tcp_rst(PEER, VICTIM, sport=40000, dport=80)
        assert f.process(rst, ctx(1.0)) is Verdict.PASS
        assert f.legit_teardowns == 1

    def test_flow_expires(self):
        f = StatefulTeardownFilter()
        from repro.net import Protocol

        data = Packet(src=PEER, dst=VICTIM, proto=Protocol.TCP, sport=1, dport=80)
        f.process(data, ctx(0.0))
        rst = Packet.tcp_rst(PEER, VICTIM, sport=1, dport=80)
        assert f.process(rst, ctx(2 * stateful.FLOW_TIMEOUT)) is Verdict.DROP  # flow long gone

    def test_icmp_unreachable_treated_like_rst(self):
        f = StatefulTeardownFilter()
        icmp = Packet.icmp(STRANGER, VICTIM, ICMPType.HOST_UNREACHABLE)
        assert f.process(icmp, ctx(0.0)) is Verdict.DROP

    def test_ordinary_icmp_passes(self):
        f = StatefulTeardownFilter()
        ping = Packet.icmp(STRANGER, VICTIM, ICMPType.ECHO_REQUEST)
        assert f.process(ping, ctx(0.0)) is Verdict.PASS

    def test_different_ports_are_different_flows(self):
        f = StatefulTeardownFilter()
        from repro.net import Protocol

        f.process(Packet(src=PEER, dst=VICTIM, proto=Protocol.TCP, sport=1, dport=80), ctx(0.0))
        rst_other_port = Packet.tcp_rst(PEER, VICTIM, sport=2, dport=80)
        assert f.process(rst_other_port, ctx(0.1)) is Verdict.DROP

    def test_flow_table_bounded(self, monkeypatch):
        monkeypatch.setattr(stateful, "MAX_FLOWS", 10)
        f = StatefulTeardownFilter()
        from repro.net import Protocol

        gap = stateful.FLOW_TIMEOUT * 10  # each flow is stale by the next
        for i in range(50):
            pkt = Packet(src=IPv4Address(i + 1), dst=VICTIM,
                         proto=Protocol.TCP, sport=i, dport=80)
            f.process(pkt, ctx(i * gap))
        assert len(f._flows) <= 11


class TestTimingAnomalyFilter:
    def _send_train(self, f, src, gaps, start=0.0):
        now = start
        verdicts = []
        for gap in gaps:
            now += gap
            pkt = Packet.udp(src, VICTIM)
            verdicts.append(f.process(pkt, ctx(now)))
        return verdicts

    def test_metronomic_source_flagged(self):
        f = TimingAnomalyFilter(min_samples=8)
        verdicts = self._send_train(f, PEER, [0.01] * 30)
        assert Verdict.DROP in verdicts
        assert int(PEER) in f.flagged_sources

    def test_bursty_source_passes(self):
        f = TimingAnomalyFilter(min_samples=8)
        gaps = [0.01, 0.5, 0.02, 1.3, 0.07, 0.9, 0.015, 2.0, 0.3, 0.05,
                1.1, 0.02, 0.6, 0.04, 0.8]
        verdicts = self._send_train(f, STRANGER, gaps)
        assert all(v is Verdict.PASS for v in verdicts)

    def test_source_recovers_when_timing_changes(self):
        f = TimingAnomalyFilter(min_samples=8, window=8)
        self._send_train(f, PEER, [0.01] * 20)
        assert int(PEER) in f.flagged_sources
        self._send_train(f, PEER, [0.01, 0.9, 0.05, 1.7, 0.02, 0.6, 0.3, 1.1],
                         start=10.0)
        assert int(PEER) not in f.flagged_sources

    def test_too_few_samples_never_flagged(self):
        f = TimingAnomalyFilter(min_samples=8)
        verdicts = self._send_train(f, PEER, [0.01] * 5)
        assert all(v is Verdict.PASS for v in verdicts)

    def test_independent_sources(self):
        f = TimingAnomalyFilter(min_samples=8)
        self._send_train(f, PEER, [0.01] * 20)
        verdicts = self._send_train(f, STRANGER,
                                    [0.3, 0.01, 1.2, 0.07, 0.5, 0.02, 0.9,
                                     0.04, 1.5, 0.2], start=100.0)
        assert all(v is Verdict.PASS for v in verdicts)

    def test_vettable(self):
        from repro.core import vet_component

        vet_component(StatefulTeardownFilter())
        vet_component(TimingAnomalyFilter())
