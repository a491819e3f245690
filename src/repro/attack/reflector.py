"""DDoS reflector attacks (paper Sec. 2.2, Fig. 1).

Agents send request packets whose *source address is spoofed to the victim*
to innocent, uncompromised servers; the servers dutifully reply — SYN/ACKs,
RSTs, ICMP messages, or amplified DNS-style answers — and the replies flood
the victim.  Crucially, the packets the victim receives carry the
*legitimate, unspoofed* addresses of the reflectors: "Stopping traffic from
these sources will also terminate access to Internet services that the
victim might rely on."

Both a packet-level engine (responders on reflector hosts) and a two-pass
fluid formulation (request flows -> surviving fraction -> reflected flows)
are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


from repro.errors import AttackConfigError
from repro.net.fluid import Flow, FluidFilter, FluidNetwork, FluidResult
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import ICMPType, Packet, Protocol
from repro.attack.flood import TrafficGenerator

__all__ = ["reflector_responder", "ReflectorAttack", "ReflectorFluidModel"]


def reflector_responder(amplification: float = 1.0, mode: str = "synack") -> Callable:
    """Build a responder modelling an innocent reflecting server.

    ``mode``:

    * ``synack`` — answers TCP SYNs with SYN/ACK (web/FTP servers),
    * ``rst`` — answers other TCP packets with RST,
    * ``icmp`` — answers anything with ICMP host-unreachable (routers),
    * ``dns`` — answers UDP queries with an ``amplification``-times larger
      reply (bandwidth amplification).

    The reply's ``kind`` is ground-truth-labelled but its source address is
    the reflector's own, *unspoofed* address — that is the whole point.
    """
    if mode not in ("synack", "rst", "icmp", "dns"):
        raise AttackConfigError(f"unknown reflector mode {mode!r}")

    def respond(packet: Packet, host: Host, now: float) -> Optional[Iterable[Packet]]:
        if packet.kind.startswith("attack-reflected"):
            return None  # never re-reflect a reflection
        reply_size = max(40, int(packet.size * amplification))
        if mode == "synack" and packet.proto is Protocol.TCP and packet.flags.is_syn:
            reply = Packet.tcp_synack(host.address, packet.src, sport=packet.dport)
        elif mode == "rst" and packet.proto is Protocol.TCP and not packet.flags.is_syn:
            reply = Packet.tcp_rst(host.address, packet.src)
        elif mode == "icmp":
            reply = Packet.icmp(host.address, packet.src, ICMPType.HOST_UNREACHABLE)
        elif mode == "dns" and packet.proto is Protocol.UDP:
            reply = Packet.udp(host.address, packet.src, sport=packet.dport, size=reply_size)
        else:
            return None
        reply.kind = "attack-reflected"
        reply.true_origin = host.name
        reply.size = max(reply.size, reply_size) if mode == "dns" else reply.size
        return [reply]

    return respond


@dataclass
class ReflectorAttack:
    """Packet-level reflector attack: agents spoof the victim toward reflectors.

    ``launch`` (a) installs reflecting responders on the reflector hosts and
    (b) starts one request generator per agent, spraying SYNs/queries over
    the reflectors round-robin.
    """

    network: Network
    agents: list[Host]
    reflectors: list[Host]
    victim: Host
    rate_pps: float = 100.0        # per agent
    request_size: int = 40
    amplification: float = 1.0     # reply bytes / request bytes (dns mode)
    mode: str = "synack"
    duration: float = 1.0
    start: float = 0.0
    seed: int | None = None

    def launch(self) -> list[TrafficGenerator]:
        if not self.reflectors:
            raise AttackConfigError("reflector attack needs reflectors")
        for reflector in self.reflectors:
            reflector.add_responder(
                reflector_responder(self.amplification, mode=self.mode)
            )
        generators = []
        n_refl = len(self.reflectors)
        for i, agent in enumerate(self.agents):
            def factory(seq: int, now: float, agent=agent, i=i) -> Packet:
                reflector = self.reflectors[(seq + i) % n_refl]
                if self.mode == "dns":
                    pkt = Packet.udp(self.victim.address, reflector.address,
                                     dport=53, size=self.request_size)
                else:
                    pkt = Packet.tcp_syn(self.victim.address, reflector.address)
                    pkt.size = self.request_size
                pkt.kind = "attack-request"
                pkt.true_origin = agent.name
                pkt.spoofed = True
                return pkt

            gen = TrafficGenerator(agent, factory, self.rate_pps,
                                   start=self.start, duration=self.duration)
            gen.install()
            generators.append(gen)
        return generators


class ReflectorFluidModel:
    """Two-pass fluid evaluation of a reflector attack.

    Pass 1 routes the spoofed *request* flows (agent AS -> reflector AS,
    claimed source = victim AS) through the filters; pass 2 turns the
    surviving request rate into *reflected* flows (reflector AS -> victim
    AS, genuinely sourced) scaled by the amplification factor, and routes
    those through the filters too.  The request flows are built once.
    """

    def __init__(self, fluid: FluidNetwork, victim_asn: int,
                 agent_asns: Sequence[int], reflector_asns: Sequence[int],
                 rate_per_agent: float, amplification: float = 1.0) -> None:
        if not reflector_asns:
            raise AttackConfigError("fluid reflector model needs reflector ASes")
        self.fluid = fluid
        self.victim_asn = victim_asn
        self.agent_asns = list(agent_asns)
        self.reflector_asns = list(reflector_asns)
        self.rate_per_agent = rate_per_agent
        self.amplification = amplification
        share = rate_per_agent / len(self.reflector_asns)
        self._requests = tuple(
            Flow(agent, refl, share, kind="attack-request",
                 claimed_src_asn=victim_asn, tag=f"agent{agent}->refl{refl}")
            for agent in self.agent_asns for refl in self.reflector_asns)

    def evaluate(self, filters: Sequence[FluidFilter] = (),
                 extra_flows: Sequence[Flow] = (),
                 congestion: bool = True) -> tuple[FluidResult, FluidResult]:
        """Run both passes; returns (request_result, reflected_result).

        ``extra_flows`` (e.g. legitimate client traffic) ride along in the
        second pass so congestion and collateral effects are shared.
        """
        req = self.fluid.evaluate(self._requests, filters=filters,
                                  congestion=congestion)
        # surviving request rate per reflector AS
        arrived: dict[int, float] = {}
        for i, f in enumerate(req.flows):
            arrived[f.dst_asn] = arrived.get(f.dst_asn, 0.0) + float(req.delivered[i])
        reflected = [
            Flow(refl, self.victim_asn, rate * self.amplification,
                 kind="attack-reflected", tag=f"refl{refl}")
            for refl, rate in sorted(arrived.items()) if rate > 0
        ]
        second = self.fluid.evaluate([*reflected, *extra_flows], filters=filters,
                                     congestion=congestion)
        return req, second
