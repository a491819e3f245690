"""Packet generators and direct flooding attacks.

:class:`TrafficGenerator` is the single packet-source abstraction used for
attack agents, legitimate clients and control traffic alike: a constant-rate
process bound to one host, emitting packets from a factory callback.

:class:`DirectFlood` is the classic (non-reflector) DDoS: agents flood the
victim, optionally writing *random spoofed source addresses* ("attack
traffic generally contains spoofed source addresses", Sec. 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import AttackConfigError
from repro.net.addressing import IPv4Address
from repro.net.fluid import Flow
from repro.net.network import Network
from repro.net.node import Host
from repro.net.packet import Packet
from repro.util.rng import derive_rng

__all__ = ["TrafficGenerator", "DirectFlood", "spoofed_source_picker"]

PacketFactory = Callable[[int, float], Optional[Packet]]


class TrafficGenerator:
    """A rate-controlled packet source attached to one host.

    Parameters
    ----------
    host:
        Sending host.
    factory:
        ``factory(seq, now) -> Packet | None``; returning None skips a slot
        (lets callers stop early or thin the stream).
    rate_pps:
        Packets per second.
    start, duration:
        Active interval in simulation time.
    """

    def __init__(self, host: Host, factory: PacketFactory, rate_pps: float,
                 start: float = 0.0, duration: float = 1.0) -> None:
        if rate_pps <= 0 or duration <= 0:
            raise AttackConfigError(f"bad generator: rate={rate_pps}, duration={duration}")
        self.host = host
        self.factory = factory
        self.rate_pps = float(rate_pps)
        self._gap = 1.0 / self.rate_pps
        self.start = float(start)
        self.stop = float(start) + float(duration)
        self.sent = 0

    def install(self) -> None:
        """Schedule the first emission on the host's network simulator."""
        sim = self.host.network.sim
        sim.schedule_at(max(self.start, sim.now), self._emit)

    def _emit(self) -> None:
        sim = self.host.network.sim
        now = sim._now
        if now > self.stop:
            return
        packet = self.factory(self.sent, now)
        if packet is not None:
            self.host.send(packet)
            self.sent += 1
        nxt = now + self._gap
        if nxt <= self.stop:
            sim.push_at(nxt, self._emit, ())


def spoofed_source_picker(network: Network, rng: np.random.Generator,
                          exclude_asns: Sequence[int] = ()) -> Callable[[], IPv4Address]:
    """Random spoofed-source generator drawing addresses from real AS prefixes.

    Random addresses are sampled from other ASes' prefixes so that spoofed
    packets look plausible and ingress/route-based filters have well-defined
    semantics (the claimed source maps to a real AS that is *not* the
    sender's).
    """
    candidates = [a for a in network.topology.as_numbers if a not in set(exclude_asns)]
    if not candidates:
        raise AttackConfigError("no ASes available to spoof from")

    def pick() -> IPv4Address:
        asn = candidates[int(rng.integers(0, len(candidates)))]
        prefix = network.topology.prefix_of(asn)
        offset = int(rng.integers(1, prefix.num_addresses))
        return IPv4Address(prefix.base + offset)

    return pick


@dataclass
class DirectFlood:
    """Direct UDP/SYN flood from agents to the victim.

    ``spoof='random'`` draws a fresh spoofed source per packet (classic
    flood), ``spoof='none'`` sends with real agent addresses (botnet-style,
    post-ingress-filtering reality).
    """

    network: Network
    agents: list[Host]
    victim: Host
    rate_pps: float = 100.0
    packet_size: int = 512
    duration: float = 1.0
    start: float = 0.0
    spoof: str = "random"  # "random" | "none"
    seed: int | None = None

    def launch(self) -> list[TrafficGenerator]:
        """Install one generator per agent; returns them for inspection."""
        if self.spoof not in ("random", "none"):
            raise AttackConfigError(f"unknown spoof mode {self.spoof!r}")
        generators = []
        for i, agent in enumerate(self.agents):
            rng = derive_rng(self.seed, "flood", i)
            picker = (
                spoofed_source_picker(self.network, rng, exclude_asns=[agent.asn])
                if self.spoof == "random" else None
            )

            def factory(seq: int, now: float, agent=agent, picker=picker) -> Packet:
                src = picker() if picker else agent.address
                return Packet.udp(
                    src, self.victim.address, size=self.packet_size,
                    kind="attack", true_origin=agent.name,
                    spoofed=picker is not None,
                )

            gen = TrafficGenerator(agent, factory, self.rate_pps,
                                   start=self.start, duration=self.duration)
            gen.install()
            generators.append(gen)
        return generators

    def as_flows(self) -> list[Flow]:
        """Fluid-model equivalent: one flow per agent toward the victim.

        With random spoofing the claimed source AS is sampled once per agent
        (a fluid aggregate of the per-packet randomisation).
        """
        rng = derive_rng(self.seed, "flood-fluid")
        rate_bps = self.rate_pps * self.packet_size * 8
        victim_asn = self.victim.asn
        flows = []
        for agent in self.agents:
            if self.spoof == "random":
                others = [a for a in self.network.topology.as_numbers if a != agent.asn]
                claimed = int(others[int(rng.integers(0, len(others)))])
            else:
                claimed = -1
            flows.append(Flow(agent.asn, victim_asn, rate_bps, kind="attack",
                              claimed_src_asn=claimed, tag=agent.name))
        return flows
