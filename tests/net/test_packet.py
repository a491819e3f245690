"""Unit tests for the packet model."""

from repro.net import ICMPType, IPv4Address, Packet, Protocol, TCPFlags


A = IPv4Address.parse("10.0.0.1")
B = IPv4Address.parse("10.0.1.1")


class TestConstructors:
    def test_syn(self):
        p = Packet.tcp_syn(A, B, dport=80)
        assert p.proto is Protocol.TCP
        assert p.flags.is_syn
        assert not p.flags.is_synack

    def test_synack(self):
        p = Packet.tcp_synack(B, A)
        assert p.flags.is_synack
        assert not p.flags.is_syn

    def test_rst(self):
        p = Packet.tcp_rst(A, B)
        assert p.flags & TCPFlags.RST

    def test_icmp(self):
        p = Packet.icmp(A, B, ICMPType.HOST_UNREACHABLE)
        assert p.proto is Protocol.ICMP
        assert p.icmp_type is ICMPType.HOST_UNREACHABLE

    def test_udp(self):
        p = Packet.udp(A, B, dport=53, size=300)
        assert p.proto is Protocol.UDP
        assert p.size == 300

    def test_minimum_size_enforced(self):
        p = Packet(src=A, dst=B, size=1)
        assert p.size == 20


class TestIdentity:
    def test_uids_unique(self):
        uids = {Packet.udp(A, B).uid for _ in range(100)}
        assert len(uids) == 100

    def test_copy_gets_fresh_uid(self):
        p = Packet.udp(A, B)
        q = p.copy()
        assert q.uid != p.uid
        assert q.src == p.src and q.size == p.size

    def test_copy_with_overrides(self):
        p = Packet.udp(A, B, kind="legit")
        q = p.copy(kind="attack", ttl=3)
        assert q.kind == "attack" and q.ttl == 3
        assert p.kind == "legit"


class TestDigest:
    def test_digest_stable(self):
        p = Packet.udp(A, B)
        assert p.digest() == p.digest()

    def test_digest_ignores_ttl(self):
        """SPIE digests must survive forwarding (TTL changes per hop)."""
        p = Packet.udp(A, B)
        d1 = p.digest()
        p.ttl -= 3
        assert p.digest() == d1

    def test_digest_ignores_marking(self):
        p = Packet.udp(A, B)
        d1 = p.digest()
        p.marking = ("AS1", "AS2", 0)
        assert p.digest() == d1

    def test_distinct_packets_distinct_digests(self):
        p = Packet.udp(A, B)
        q = Packet.udp(A, B)
        assert p.digest() != q.digest()  # uid differs

    def test_digest_depends_on_header(self):
        p = Packet.udp(A, B, dport=53)
        q = p.copy(uid=p.uid, dport=80)
        assert p.digest() != q.digest()


class TestGroundTruth:
    def test_defaults(self):
        p = Packet.udp(A, B)
        assert p.kind == "legit"
        assert not p.spoofed
        assert p.true_origin is None

    def test_spoofed_attack(self):
        p = Packet.tcp_syn(A, B, spoofed=True, true_origin="agent-1", kind="attack")
        assert p.spoofed
        assert p.true_origin == "agent-1"
