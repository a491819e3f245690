"""Roles of the amplifying attack network (paper Fig. 1).

An attacker controls a few *masters*; each master controls many *agents*
(compromised "zombie" hosts); agents either flood the victim directly or
bounce traffic off innocent *reflectors*.  The structure amplifies packet
rate, packet size and traceback difficulty (Sec. 2.2) — properties measured
by :mod:`repro.attack.amplification`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AttackConfigError
from repro.net.node import Host

__all__ = ["AttackRole", "AmplifyingNetwork"]


class AttackRole(enum.Enum):
    """Role of a host in the attack structure."""

    ATTACKER = "attacker"
    MASTER = "master"
    AGENT = "agent"
    REFLECTOR = "reflector"
    VICTIM = "victim"
    LEGIT = "legit"


@dataclass
class AmplifyingNetwork:
    """The control structure: attacker -> masters -> agents (-> reflectors).

    ``control_edges`` records who commands whom, so experiments can count
    control packets and compute the traceback-difficulty depth.
    """

    attacker: Host
    masters: list[Host] = field(default_factory=list)
    agents: list[Host] = field(default_factory=list)
    reflectors: list[Host] = field(default_factory=list)
    victim: Optional[Host] = None
    control_edges: list[tuple[Host, Host]] = field(default_factory=list)

    def assign_agents(self) -> None:
        """Distribute agents round-robin over masters and record the edges."""
        if not self.masters:
            raise AttackConfigError("amplifying network needs at least one master")
        self.control_edges = [(self.attacker, m) for m in self.masters]
        for i, agent in enumerate(self.agents):
            master = self.masters[i % len(self.masters)]
            self.control_edges.append((master, agent))

    @property
    def control_depth(self) -> int:
        """Levels of indirection between attacker and the traffic the victim
        sees: attacker->master->agent (2), +1 if reflectors bounce it.

        This is the paper's "difficulty to trace back an attack to the
        initiating attacker" in structural form: each level is one more
        party that must be identified and subpoenaed/queried.
        """
        depth = 0
        if self.masters:
            depth += 1
        if self.agents:
            depth += 1
        if self.reflectors:
            depth += 1
        return depth

    @property
    def size(self) -> int:
        """Number of hosts participating on the attacker's side."""
        return 1 + len(self.masters) + len(self.agents)

    def validate(self) -> None:
        """Sanity-check the structure before launching."""
        if self.agents and not self.masters:
            raise AttackConfigError("agents require at least one master")
        if not self.agents:
            raise AttackConfigError("an attack needs at least one agent")
        seen: set[int] = set()
        for h in [self.attacker, *self.masters, *self.agents]:
            if id(h) in seen:
                raise AttackConfigError(f"host {h.name} has two attack roles")
            seen.add(id(h))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AmplifyingNetwork(masters={len(self.masters)}, agents={len(self.agents)}, "
            f"reflectors={len(self.reflectors)}, depth={self.control_depth})"
        )
