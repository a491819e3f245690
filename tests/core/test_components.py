"""Tests for the adaptive-device processing components."""

import pytest

from repro.core import NetworkUser
from repro.core.components import (
    ComponentContext,
    DigestStoreComponent,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PayloadHashFilter,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    StatisticsCollector,
    TriggerComponent,
    Verdict,
)
from repro.net import ICMPType, IPv4Address, Packet, Prefix, Protocol, TCPFlags

P = Prefix.parse
A = IPv4Address.parse
OWNER = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])


def ctx(now=0.0, asn=7, is_transit=False, local_prefix="10.7.0.0/16",
        stage="dest", local_origin=False, ingress=None):
    return ComponentContext(now=now, asn=asn, is_transit=is_transit,
                            local_prefix=P(local_prefix), stage=stage,
                            owner=OWNER, ingress_asn=ingress,
                            local_origin=local_origin)


class TestHeaderMatch:
    def test_proto_and_port(self):
        m = HeaderMatch(proto=Protocol.UDP, dport=53)
        assert m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), dport=53))
        assert not m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), dport=80))
        assert not m.matches(Packet.tcp_syn(A("1.1.1.1"), A("2.2.2.2"), dport=53))

    def test_flags_any(self):
        m = HeaderMatch(flags_any=TCPFlags.RST)
        assert m.matches(Packet.tcp_rst(A("1.1.1.1"), A("2.2.2.2")))
        assert not m.matches(Packet.tcp_syn(A("1.1.1.1"), A("2.2.2.2")))

    def test_prefixes(self):
        m = HeaderMatch(src_prefix=P("10.1.0.0/16"), dst_prefix=P("10.2.0.0/16"))
        assert m.matches(Packet.udp(A("10.1.0.1"), A("10.2.0.1")))
        assert not m.matches(Packet.udp(A("10.9.0.1"), A("10.2.0.1")))

    def test_size_bounds(self):
        m = HeaderMatch(min_size=100, max_size=200)
        assert m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=150))
        assert not m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=99))
        assert not m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=201))

    def test_icmp_type(self):
        m = HeaderMatch(icmp_type=ICMPType.HOST_UNREACHABLE)
        assert m.matches(Packet.icmp(A("1.1.1.1"), A("2.2.2.2"), ICMPType.HOST_UNREACHABLE))
        assert not m.matches(Packet.icmp(A("1.1.1.1"), A("2.2.2.2"), ICMPType.ECHO_REQUEST))

    def test_sport(self):
        m = HeaderMatch(sport=53)
        assert m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), sport=53))
        assert not m.matches(Packet.udp(A("1.1.1.1"), A("2.2.2.2")))

    def test_numeric_enum_fields_are_coerced(self):
        # packets carry enum members; a raw protocol number used to be
        # compared by identity and match nothing
        udp = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        assert HeaderMatch(proto=17).matches(udp)
        assert HeaderMatch(proto=17).proto is Protocol.UDP
        unreachable = Packet.icmp(A("1.1.1.1"), A("2.2.2.2"),
                                  ICMPType.HOST_UNREACHABLE)
        assert HeaderMatch(icmp_type=3).matches(unreachable)
        rst = Packet.tcp_rst(A("1.1.1.1"), A("2.2.2.2"))
        assert HeaderMatch(flags_any=TCPFlags.RST.value).matches(rst)

    @pytest.mark.parametrize("field,value", [
        ("proto", 99), ("icmp_type", 99), ("flags_any", 99),
        ("proto", "udp")])
    def test_unknown_enum_values_rejected(self, field, value):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=field):
            HeaderMatch(**{field: value})


class TestFilters:
    def test_header_filter_counts(self):
        f = HeaderFilter("f", HeaderMatch(proto=Protocol.ICMP))
        assert f(Packet.icmp(A("1.1.1.1"), A("2.2.2.2"), ICMPType.ECHO_REQUEST), ctx()) is Verdict.DROP
        assert f(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx()) is Verdict.PASS
        assert f.processed == 2 and f.dropped == 1

    def test_prefix_blacklist(self):
        b = PrefixBlacklist("b", [P("10.5.0.0/16")])
        assert b(Packet.udp(A("10.5.1.1"), A("2.2.2.2")), ctx()) is Verdict.DROP
        assert b(Packet.udp(A("10.6.1.1"), A("2.2.2.2")), ctx()) is Verdict.PASS
        b.add(P("10.6.0.0/16"))
        assert b(Packet.udp(A("10.6.1.1"), A("2.2.2.2")), ctx()) is Verdict.DROP
        b.remove(P("10.6.0.0/16"))
        assert b(Packet.udp(A("10.6.1.1"), A("2.2.2.2")), ctx()) is Verdict.PASS

    def test_rate_limiter(self):
        r = RateLimiterComponent("r", rate_bps=8_000.0, burst_bytes=1_000.0)
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=1000)
        assert r(pkt, ctx(now=0.0)) is Verdict.PASS
        assert r(pkt.copy(), ctx(now=0.0)) is Verdict.DROP   # bucket drained
        assert r(pkt.copy(), ctx(now=1.0)) is Verdict.PASS   # 1000 B refilled

    def test_payload_hash_filter(self):
        f = PayloadHashFilter("f", banned_digests=[b"worm-sig"])
        bad = Packet.udp(A("1.1.1.1"), A("2.2.2.2"), payload_digest=b"worm-sig")
        good = Packet.udp(A("1.1.1.1"), A("2.2.2.2"), payload_digest=b"cat-pic")
        assert f(bad, ctx()) is Verdict.DROP
        assert f(good, ctx()) is Verdict.PASS
        f.ban(b"cat-pic")
        assert f(good.copy(), ctx()) is Verdict.DROP

    def test_payload_scrubber_shrinks_only(self):
        s = PayloadScrubber()
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=520, payload_digest=b"x")
        assert s(pkt, ctx()) is Verdict.PASS
        assert pkt.size == 20
        assert pkt.payload_digest == b""
        assert s.scrubbed_bytes == 500
        # idempotent on already-scrubbed packets
        s(pkt, ctx())
        assert s.scrubbed_bytes == 500


class TestSourceAntiSpoof:
    PROTECTED = [P("10.1.0.0/16")]

    def test_drops_locally_injected_spoof_at_foreign_stub(self):
        c = SourceAntiSpoof("as", self.PROTECTED)
        pkt = Packet.udp(A("10.1.0.9"), A("2.2.2.2"))  # claims protected src
        assert c(pkt, ctx(is_transit=False, local_origin=True,
                          local_prefix="10.7.0.0/16")) is Verdict.DROP

    def test_passes_transit_traffic(self):
        """'Of course, transit traffic ... must not be blocked.'"""
        c = SourceAntiSpoof("as", self.PROTECTED)
        pkt = Packet.udp(A("10.1.0.9"), A("2.2.2.2"))
        assert c(pkt, ctx(is_transit=True, local_origin=False)) is Verdict.PASS

    def test_passes_at_owners_own_isp(self):
        """The web site's own uplink traffic must flow."""
        c = SourceAntiSpoof("as", self.PROTECTED)
        pkt = Packet.udp(A("10.1.0.9"), A("2.2.2.2"))
        assert c(pkt, ctx(is_transit=False, local_origin=True,
                          local_prefix="10.1.0.0/16")) is Verdict.PASS

    def test_passes_non_spoofed_local_traffic(self):
        c = SourceAntiSpoof("as", self.PROTECTED)
        pkt = Packet.udp(A("10.7.0.9"), A("10.1.0.1"))  # genuine local source
        assert c(pkt, ctx(is_transit=False, local_origin=True,
                          local_prefix="10.7.0.0/16")) is Verdict.PASS

    def test_passes_forwarded_traffic_at_stub(self):
        """Reply traffic *to* clients at this stub is not locally injected."""
        c = SourceAntiSpoof("as", self.PROTECTED)
        pkt = Packet.udp(A("10.1.0.9"), A("10.7.0.1"))
        assert c(pkt, ctx(is_transit=False, local_origin=False,
                          local_prefix="10.7.0.0/16", ingress=3)) is Verdict.PASS


class TestObservation:
    def test_logger_bounded(self):
        lg = LoggerComponent(max_entries=2)
        for i in range(5):
            lg(Packet.udp(A("1.1.1.1"), A("2.2.2.2")), ctx(now=float(i)))
        assert len(lg.entries) == 2
        assert lg.processed == 5

    def test_statistics_collector(self):
        st = StatisticsCollector(window=10.0)
        st(Packet.udp(A("1.1.1.1"), A("2.2.2.2"), size=100), ctx(now=0.0))
        st(Packet.tcp_syn(A("1.1.1.1"), A("2.2.2.2")), ctx(now=1.0))
        assert st.packets_by_proto == {"UDP": 1, "TCP": 1}
        assert st.bytes_by_proto["UDP"] == 100
        assert st.rate.total(1.0) == 2.0

    def test_digest_store_membership(self):
        ds = DigestStoreComponent(capacity=100)
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        other = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        ds(pkt, ctx(now=0.5))
        assert ds.saw(pkt)
        assert not ds.saw(other)

    def test_digest_store_window_paging(self):
        ds = DigestStoreComponent(capacity=10, window=1.0, max_windows=2)
        pkts = [Packet.udp(A("1.1.1.1"), A("2.2.2.2")) for _ in range(4)]
        for i, pkt in enumerate(pkts):
            ds(pkt, ctx(now=float(i)))
        assert len(ds.backlog) == 2
        assert not ds.saw(pkts[0])  # paged out
        assert ds.saw(pkts[3])


class TestTrigger:
    def test_fires_over_threshold_once(self):
        fired = []
        t = TriggerComponent("t", threshold_pps=10.0,
                             action=lambda c, r: fired.append((c.now, r)),
                             window=1.0)
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        for i in range(40):
            t(pkt, ctx(now=i * 0.02))
        assert len(fired) == 1
        assert t.fired == 1

    def test_rearms_after_quiet_period(self):
        fired = []
        t = TriggerComponent("t", threshold_pps=10.0,
                             action=lambda c, r: fired.append(c.now),
                             window=0.5, rearm=0.5)
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        for i in range(20):
            t(pkt, ctx(now=i * 0.02))       # burst 1 -> fires
        for i in range(20):
            t(pkt, ctx(now=5.0 + i * 1.0))  # slow traffic -> rearm
        for i in range(20):
            t(pkt, ctx(now=30.0 + i * 0.02))  # burst 2 -> fires again
        assert len(fired) == 2

    def test_predicate_filters_counted_packets(self):
        fired = []
        t = TriggerComponent("t", threshold_pps=5.0,
                             action=lambda c, r: fired.append(c.now),
                             predicate=lambda p: p.proto is Protocol.TCP,
                             window=1.0)
        udp = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        for i in range(50):
            t(udp, ctx(now=i * 0.01))
        assert not fired  # UDP storm ignored

    def test_invalid_threshold(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            TriggerComponent("t", threshold_pps=0.0, action=lambda c, r: None)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold(self, threshold):
        from repro.errors import ReproError

        # a NaN threshold used to pass the ``<= 0`` check and never fire
        with pytest.raises(ReproError, match="finite"):
            TriggerComponent("t", threshold_pps=threshold,
                             action=lambda c, r: None)

    @pytest.mark.parametrize("knobs", [
        {"window": float("nan")}, {"window": float("inf")},
        {"window": 0.0}, {"window": -1.0},
        {"rearm": float("nan")}, {"rearm": -1.0}, {"rearm": 1.5},
        {"track_sources": 4, "per_source_threshold": float("nan")},
        {"track_sources": 4, "per_source_threshold": float("inf")},
        {"track_sources": 4, "per_source_threshold": 0.0},
        {"hh_min_share": 0.0}, {"hh_min_share": 1.5},
        {"hh_min_share": float("nan")},
    ])
    def test_invalid_knobs_rejected(self, knobs):
        from repro.errors import ReproError

        # window=nan used to be accepted and the trigger never fired
        with pytest.raises(ReproError, match="trigger"):
            TriggerComponent("t", threshold_pps=5.0,
                             action=lambda c, r: None, **knobs)

    def test_never_drops(self):
        t = TriggerComponent("t", threshold_pps=1.0, action=lambda c, r: None)
        pkt = Packet.udp(A("1.1.1.1"), A("2.2.2.2"))
        for i in range(100):
            assert t(pkt, ctx(now=i * 0.001)) is Verdict.PASS
