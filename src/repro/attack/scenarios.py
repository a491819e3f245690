"""End-to-end attack scenario builder.

Wires a complete experiment onto a :class:`~repro.net.network.Network`:
victim + legitimate clients + the amplifying attack structure of Fig. 1,
for any of the paper's three attack classes —

* ``direct-spoofed``   — agents flood the victim with random spoofed sources,
* ``direct-unspoofed`` — agents flood with their real addresses,
* ``reflector``        — agents bounce spoofed requests off innocent servers.

The same scenario object can also be exported to the fluid model
(:meth:`AttackScenario.as_flows` / :meth:`fluid_reflector`), so packet-level
and flow-level experiments share one ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AttackConfigError
from repro.net.fluid import Flow, FluidNetwork
from repro.net.network import Network
from repro.net.packet import Packet
from repro.attack.flood import DirectFlood, TrafficGenerator
from repro.attack.reflector import ReflectorAttack, ReflectorFluidModel
from repro.attack.roles import AmplifyingNetwork
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenario.spec import AttackSpec

__all__ = ["ScenarioMetrics", "AttackScenario"]


@dataclass
class ScenarioMetrics:
    """Ground-truth outcome of a packet-level scenario run."""

    attack_packets_at_victim: int
    attack_bytes_at_victim: int
    legit_sent: int
    legit_delivered: int
    attack_requests_sent: int
    legit_dropped_by_filters: int
    attack_dropped_by_filters: int
    byte_hops_attack: float
    control_packets: int

    @property
    def legit_goodput(self) -> float:
        """Fraction of legitimate packets that reached the victim."""
        return self.legit_delivered / self.legit_sent if self.legit_sent else 1.0

    @property
    def collateral_fraction(self) -> float:
        """Fraction of legitimate packets killed *by mitigations* (not by
        congestion) — the paper's "counterproductive" measure."""
        return self.legit_dropped_by_filters / self.legit_sent if self.legit_sent else 0.0


class AttackScenario:
    """The :class:`~repro.scenario.spec.AttackSpec` ``attack`` wired onto a
    packet-level network; every placement and traffic draw derives from
    the absolute ``seed``."""

    def __init__(self, network: Network, attack: "AttackSpec",
                 seed: int) -> None:
        self.network = network
        self.attack = attack
        self.seed = seed
        rng = derive_rng(seed, "scenario")
        topo = network.topology
        stubs = topo.stub_ases
        if len(stubs) < 3:
            raise AttackConfigError("scenario needs at least 3 stub ASes")

        # --- victim
        self.victim_asn = int(stubs[int(rng.integers(0, len(stubs)))])
        self.victim = network.add_host(self.victim_asn)

        others = [a for a in stubs if a != self.victim_asn]

        def sample(n: int) -> list[int]:
            return [int(others[int(rng.integers(0, len(others)))]) for _ in range(n)]

        # --- attacker-side structure
        self.attacker = network.add_host(sample(1)[0])
        self.masters = [network.add_host(a) for a in sample(attack.n_masters)]
        self.agents = [network.add_host(a) for a in sample(attack.n_agents)]
        self.reflectors = (
            [network.add_host(a) for a in sample(attack.n_reflectors)]
            if attack.kind == "reflector" else []
        )
        self.structure = AmplifyingNetwork(
            attacker=self.attacker, masters=self.masters,
            agents=self.agents, reflectors=self.reflectors, victim=self.victim,
        )
        self.structure.assign_agents()
        self.structure.validate()

        # --- legitimate clients
        self.legit_clients = [network.add_host(a) for a in sample(attack.n_legit_clients)]
        self._legit_generators: list[TrafficGenerator] = []
        self._attack_generators: list[TrafficGenerator] = []
        self.control_packets = 0

    # ------------------------------------------------------------------ launch
    def launch(self, legit: bool = True) -> None:
        """Schedule control traffic, attack traffic and (optionally)
        legitimate traffic."""
        spec = self.attack
        self._send_control()
        if spec.kind == "reflector":
            attack = ReflectorAttack(
                self.network, self.agents, self.reflectors, self.victim,
                rate_pps=spec.attack_rate_pps, request_size=spec.request_size,
                amplification=spec.amplification, mode=spec.reflector_mode,
                duration=spec.duration, start=spec.attack_start, seed=self.seed,
            )
            self._attack_generators = attack.launch()
        else:
            flood = DirectFlood(
                self.network, self.agents, self.victim,
                rate_pps=spec.attack_rate_pps, packet_size=spec.attack_packet_size,
                duration=spec.duration, start=spec.attack_start,
                spoof="random" if spec.kind == "direct-spoofed" else "none",
                seed=self.seed,
            )
            self._attack_generators = flood.launch()
        if legit:
            self.launch_legit()

    def launch_legit(self, wrapper=None) -> None:
        """Start the legitimate clients (web requests toward the victim).

        ``wrapper(client, packet) -> packet`` lets defenses that require
        client cooperation (secure overlays, i3 triggers) rewrite the
        victim-bound packets on their way out.
        """
        spec = self.attack
        for i, client in enumerate(self.legit_clients):
            def factory(seq: int, now: float, client=client) -> Packet:
                pkt = Packet.udp(client.address, self.victim.address,
                                 dport=80, size=256, kind="legit",
                                 true_origin=client.name)
                return wrapper(client, pkt) if wrapper else pkt

            gen = TrafficGenerator(client, factory, spec.legit_rate_pps,
                                   start=0.0, duration=spec.attack_start + spec.duration,
                                   seed=derive_rng(self.seed, "legit", i))
            gen.install()
            self._legit_generators.append(gen)

    def _send_control(self) -> None:
        """Attacker commands masters; masters command agents (Fig. 1)."""
        sim = self.network.sim
        for src, dst in self.structure.control_edges:
            pkt = Packet.udp(src.address, dst.address, size=64, kind="control",
                             true_origin=src.name)
            sim.schedule_at(max(sim.now, 0.0), src.send, pkt)
            self.control_packets += 1

    def run(self, settle: float = 0.5) -> ScenarioMetrics:
        """Launch (if needed), run to completion, and collect metrics."""
        if not self._attack_generators and not self._legit_generators:
            self.launch()
        self.network.run(until=self.attack.attack_start + self.attack.duration + settle)
        return self.metrics()

    # ----------------------------------------------------------------- metrics
    def metrics(self) -> ScenarioMetrics:
        v = self.victim
        attack_pkts = sum(n for k, n in v.received_by_kind.items() if k.startswith("attack"))
        attack_bytes = sum(n for k, n in v.received_bytes_by_kind.items() if k.startswith("attack"))
        legit_sent = sum(g.sent for g in self._legit_generators)
        legit_delivered = v.received_by_kind.get("legit", 0)
        requests_sent = sum(g.sent for g in self._attack_generators)
        legit_filtered = 0
        attack_filtered = 0
        for router in self.network.routers.values():
            for (reason, kind), count in router.drops_by_kind.items():
                mitigation_drop = reason.startswith("filter:") or reason == "adaptive-device"
                if not mitigation_drop:
                    continue
                if kind == "legit":
                    legit_filtered += count
                elif kind.startswith("attack"):
                    attack_filtered += count
        byte_hops_attack = sum(
            v for k, v in self.network.byte_hops_by_kind.items() if k.startswith("attack")
        )
        return ScenarioMetrics(
            attack_packets_at_victim=attack_pkts,
            attack_bytes_at_victim=attack_bytes,
            legit_sent=legit_sent,
            legit_delivered=legit_delivered,
            attack_requests_sent=requests_sent,
            legit_dropped_by_filters=legit_filtered,
            attack_dropped_by_filters=attack_filtered,
            byte_hops_attack=byte_hops_attack,
            control_packets=self.control_packets,
        )

    # ------------------------------------------------------------- fluid views
    def as_flows(self) -> list[Flow]:
        """Fluid flows for the *direct* attack classes plus legit traffic."""
        spec = self.attack
        if spec.kind == "reflector":
            raise AttackConfigError("use fluid_reflector() for reflector scenarios")
        flood = DirectFlood(
            self.network, self.agents, self.victim,
            rate_pps=spec.attack_rate_pps, packet_size=spec.attack_packet_size,
            spoof="random" if spec.kind == "direct-spoofed" else "none",
            seed=self.seed,
        )
        return [*flood.as_flows(), *self.legit_flows()]

    def legit_flows(self) -> list[Flow]:
        rate_bps = self.attack.legit_rate_pps * 256 * 8
        return [Flow(c.asn, self.victim_asn, rate_bps, kind="legit", tag=c.name)
                for c in self.legit_clients]

    def fluid_reflector(self, fluid: FluidNetwork) -> ReflectorFluidModel:
        """Two-pass fluid model matching this scenario's reflector setup."""
        spec = self.attack
        if spec.kind != "reflector":
            raise AttackConfigError("scenario is not a reflector attack")
        rate_bps = spec.attack_rate_pps * spec.request_size * 8
        return ReflectorFluidModel(
            fluid, self.victim_asn,
            agent_asns=[a.asn for a in self.agents],
            reflector_asns=[r.asn for r in self.reflectors],
            rate_per_agent=rate_bps, amplification=spec.amplification,
        )
