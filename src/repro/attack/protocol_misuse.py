"""Protocol-misuse attacks: connection teardown via forged TCP RST or ICMP
messages (paper Sec. 2.1: "misuse of protocols that make the victim host
seem to be temporarily unavailable due to faked protocol signalling", and
Sec. 4.3: "Attacks based on protocol misuse ... can also be filtered out").

We model a pool of long-lived TCP connections at a victim host; an attacker
injects spoofed RST (or ICMP host-unreachable) packets that, on delivery,
kill the matching connection.  The experiment metric is connection survival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


from repro.errors import AttackConfigError
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import ICMPType, Packet, Protocol, TCPFlags
from repro.attack.flood import TrafficGenerator
from repro.util.rng import derive_rng

__all__ = ["Connection", "ConnectionPool", "ProtocolMisuseAttack"]


@dataclass
class Connection:
    """One established TCP connection as seen by the victim endpoint."""

    peer: int        # remote address value
    alive: bool = True
    killed_at: Optional[float] = None
    killed_by: Optional[str] = None


class ConnectionPool:
    """Tracks established connections on a host and reacts to teardown packets.

    Install on the victim host with ``host.add_responder(pool.on_packet)``.
    A TCP RST (or ICMP host-unreachable) matching an established peer kills
    the connection — the endpoint cannot tell forged signalling from real.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        self.connections: list[Connection] = []
        host.add_responder(self.on_packet)

    def establish(self, peer: Host) -> Connection:
        conn = Connection(peer=int(peer.address))
        self.connections.append(conn)
        return conn

    def on_packet(self, packet: Packet, host: Host, now: float) -> None:
        teardown = (
            (packet.proto is Protocol.TCP and bool(packet.flags & TCPFlags.RST))
            or (packet.proto is Protocol.ICMP and packet.icmp_type is ICMPType.HOST_UNREACHABLE)
        )
        if not teardown:
            return None
        # the teardown must claim to come from the connection's peer: an
        # ICMP unreachable says the peer became unreachable, an RST that
        # the peer reset the connection
        src = int(packet.src)
        for conn in self.connections:
            if conn.alive and src == conn.peer:
                conn.alive = False
                conn.killed_at = now
                conn.killed_by = "icmp" if packet.proto is Protocol.ICMP else "rst"
                break
        return None

    @property
    def alive_count(self) -> int:
        return sum(1 for c in self.connections if c.alive)

    @property
    def survival_fraction(self) -> float:
        return self.alive_count / len(self.connections) if self.connections else 1.0


@dataclass
class ProtocolMisuseAttack:
    """Inject forged teardown packets against a victim's connection pool.

    The attacker knows (or guesses) the victim's peers; each injected packet
    spoofs one peer's address.  ``mode`` selects RST or ICMP.
    """

    network: Network
    attacker_host: Host
    pool: ConnectionPool
    rate_pps: float = 20.0
    duration: float = 1.0
    start: float = 0.0
    mode: str = "rst"  # "rst" | "icmp"
    hit_fraction: float = 1.0  # fraction of injected packets naming a real peer
    seed: int | None = None

    def launch(self) -> TrafficGenerator:
        if self.mode not in ("rst", "icmp"):
            raise AttackConfigError(f"unknown misuse mode {self.mode!r}")
        if not self.pool.connections:
            raise AttackConfigError("victim has no connections to attack")
        rng = derive_rng(self.seed, "misuse")
        victim_addr = self.pool.host.address
        peers = [c.peer for c in self.pool.connections]

        def factory(seq: int, now: float) -> Packet:
            from repro.net.addressing import IPv4Address

            if rng.random() < self.hit_fraction:
                spoofed_src = IPv4Address(peers[int(rng.integers(0, len(peers)))])
            else:  # wild guess: an address unrelated to any connection
                spoofed_src = IPv4Address(int(rng.integers(1, 2**32 - 1)))
            if self.mode == "rst":
                pkt = Packet.tcp_rst(spoofed_src, victim_addr)
            else:
                pkt = Packet.icmp(spoofed_src, victim_addr, ICMPType.HOST_UNREACHABLE)
            pkt.kind = "attack-misuse"
            pkt.true_origin = self.attacker_host.name
            pkt.spoofed = True
            return pkt

        gen = TrafficGenerator(self.attacker_host, factory, self.rate_pps,
                               start=self.start, duration=self.duration)
        gen.install()
        return gen
