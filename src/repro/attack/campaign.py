"""Multi-phase attack campaigns and timeline measurement.

Real incidents are not single-vector: the paper's motivation section
describes attackers who "construct new attack tools and variants" while
"defence strategies lag far behind" (Sec. 1).  A :class:`Campaign` plays
several attack phases against one victim — e.g. spoofed flood, then
reflector bounce, then forged-RST teardown — and a
:class:`TimelineSampler` records per-interval victim metrics so defenses
can be compared *over time* (detection lag, recovery, re-attack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import AttackConfigError
from repro.attack.flood import DirectFlood
from repro.attack.protocol_misuse import ConnectionPool, ProtocolMisuseAttack
from repro.attack.reflector import ReflectorAttack
from repro.net.network import Network
from repro.net.node import Host

__all__ = ["CampaignPhase", "Campaign", "TimelineSampler"]

PHASE_KINDS = ("direct-spoofed", "direct-unspoofed", "reflector", "rst-misuse")

#: seconds between two victim samples of a :class:`TimelineSampler`
SAMPLE_INTERVAL = 0.1


@dataclass(frozen=True)
class CampaignPhase:
    """One attack wave."""

    kind: str
    start: float
    duration: float
    rate_pps: float = 200.0
    amplification: float = 5.0   # reflector phases
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise AttackConfigError(f"unknown phase kind {self.kind!r}")
        if self.duration <= 0 or self.start < 0:
            raise AttackConfigError("phase needs start >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


class TimelineSampler:
    """Per-interval victim metrics: attack/legit arrivals over time."""

    def __init__(self, victim: Host) -> None:
        self.victim = victim
        self.times: list[float] = []
        self.attack_pps: list[float] = []
        self.legit_pps: list[float] = []
        self._last_attack = 0
        self._last_legit = 0

    def install(self, network: Network, until: float) -> None:
        network.sim.schedule_every(SAMPLE_INTERVAL, self._sample, until=until)

    def _sample(self) -> None:
        attack = sum(n for k, n in self.victim.received_by_kind.items()
                     if k.startswith("attack"))
        legit = self.victim.received_by_kind.get("legit", 0)
        self.times.append(self.victim.network.sim.now)
        self.attack_pps.append((attack - self._last_attack) / SAMPLE_INTERVAL)
        self.legit_pps.append((legit - self._last_legit) / SAMPLE_INTERVAL)
        self._last_attack = attack
        self._last_legit = legit

    def attack_rate_during(self, start: float, end: float) -> float:
        """Mean attack packet rate inside [start, end)."""
        samples = [r for t, r in zip(self.times, self.attack_pps)
                   if start <= t < end]
        return sum(samples) / len(samples) if samples else 0.0


class Campaign:
    """A scripted multi-phase attack against one victim."""

    def __init__(self, network: Network, victim: Host,
                 agents: list[Host], reflectors: list[Host],
                 phases: list[CampaignPhase], seed: int = 0) -> None:
        if not phases:
            raise AttackConfigError("campaign needs at least one phase")
        self.network = network
        self.victim = victim
        self.agents = agents
        self.reflectors = reflectors
        self.phases = sorted(phases, key=lambda p: p.start)
        self.seed = seed
        self.pool: Optional[ConnectionPool] = None
        self.sampler = TimelineSampler(victim)

    @property
    def end(self) -> float:
        return max(p.end for p in self.phases)

    def launch(self) -> None:
        """Schedule every phase and the timeline sampler."""
        for i, phase in enumerate(self.phases):
            if phase.kind in ("direct-spoofed", "direct-unspoofed"):
                DirectFlood(
                    self.network, self.agents, self.victim,
                    rate_pps=phase.rate_pps, duration=phase.duration,
                    start=phase.start,
                    spoof="random" if phase.kind == "direct-spoofed" else "none",
                    seed=self.seed + i,
                ).launch()
            elif phase.kind == "reflector":
                if not self.reflectors:
                    raise AttackConfigError("reflector phase without reflectors")
                ReflectorAttack(
                    self.network, self.agents, self.reflectors, self.victim,
                    rate_pps=phase.rate_pps, duration=phase.duration,
                    start=phase.start, amplification=phase.amplification,
                    mode="dns", seed=self.seed + i,
                ).launch()
            elif phase.kind == "rst-misuse":
                if self.pool is None:
                    raise AttackConfigError(
                        "rst-misuse phase needs a ConnectionPool "
                        "(set campaign.pool)")
                ProtocolMisuseAttack(
                    self.network, self.agents[0], self.pool,
                    rate_pps=phase.rate_pps, duration=phase.duration,
                    start=phase.start, mode="rst", seed=self.seed + i,
                ).launch()
        self.sampler.install(self.network, until=self.end + 0.5)

    def run(self, settle: float = 0.5) -> TimelineSampler:
        """Launch and run the whole campaign; returns the timeline."""
        self.launch()
        self.network.run(until=self.end + settle)
        return self.sampler

    def phase_report(self) -> list[tuple[str, float]]:
        """(phase label, mean attack pps at the victim) per phase."""
        out = []
        for phase in self.phases:
            label = phase.label or phase.kind
            out.append((label, self.sampler.attack_rate_during(
                phase.start, phase.end + 0.2)))
        return out
