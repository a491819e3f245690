"""Worm-based agent recruitment.

The paper motivates DDoS with mass worm outbreaks (Slammer, Blaster,
Sasser, MyDoom — Sec. 1 and 2.1: "Attackers can make use of Internet worms
... to build up a huge amplifying network of several ten thousand hosts in
a short time").  We model outbreak dynamics two ways:

* :class:`EpidemicModel` — the classic random-scanning SI epidemic
  (logistic growth, Staniford/Moore analysis of Slammer), solved
  numerically with NumPy;
* :class:`WormOutbreak` — a seeded stochastic realisation that maps newly
  infected hosts onto stub ASes of a concrete topology, yielding the agent
  population available to an attack at any time t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AttackConfigError
from repro.net.topology import Topology
from repro.util.rng import derive_rng

__all__ = ["EpidemicModel", "PatchedEpidemicModel", "WormOutbreak"]


@dataclass(frozen=True)
class EpidemicModel:
    """Random-scanning worm as an SI epidemic.

    With ``n_vulnerable`` susceptible hosts in an address space of
    ``address_space`` and per-host scan rate ``scan_rate`` (probes/second),
    the infection rate follows the logistic ODE

        dI/dt = beta * I * (N - I),   beta = scan_rate / address_space.

    The closed form is ``I(t) = N / (1 + (N/I0 - 1) exp(-beta N t))``.
    """

    n_vulnerable: int = 75_000          # Slammer's susceptible population
    scan_rate: float = 4000.0           # probes/s/host (Slammer ~4k on 100 Mbit)
    address_space: float = 2.0**32
    initial_infected: int = 1

    def __post_init__(self) -> None:
        if self.n_vulnerable < 1 or self.initial_infected < 1:
            raise AttackConfigError("epidemic needs >= 1 vulnerable and infected host")
        if self.initial_infected > self.n_vulnerable:
            raise AttackConfigError("cannot start with more infected than vulnerable")

    @property
    def beta(self) -> float:
        return self.scan_rate / self.address_space

    def infected_at(self, t: np.ndarray | float) -> np.ndarray | float:
        """Infected host count at time(s) ``t`` (closed-form logistic)."""
        n = float(self.n_vulnerable)
        i0 = float(self.initial_infected)
        g = self.beta * n
        t_arr = np.asarray(t, dtype=np.float64)
        result = n / (1.0 + (n / i0 - 1.0) * np.exp(-g * t_arr))
        return float(result) if np.isscalar(t) else result

    def curve(self, t_max: float, dt: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """(times, infected counts) sampled on a regular grid."""
        times = np.arange(0.0, t_max + dt / 2, dt)
        return times, np.asarray(self.infected_at(times))


@dataclass(frozen=True)
class PatchedEpidemicModel:
    """SIR extension: hosts get patched/cleaned at rate ``patch_rate``.

    The paper's Sec. 1 observes that hosts "are patched lazily"; this model
    quantifies what lazy means for the attacker's sustained botnet size.
    With susceptibles S, infected I, recovered R:

        dS/dt = -beta * S * I
        dI/dt =  beta * S * I - gamma * I
        dR/dt =  gamma * I

    Solved by explicit Euler integration (NumPy); for gamma = 0 it matches
    :class:`EpidemicModel` exactly.
    """

    n_vulnerable: int = 75_000
    scan_rate: float = 4000.0
    address_space: float = 2.0**32
    initial_infected: int = 1
    patch_rate: float = 1.0 / 86400.0  # one patch cycle per day

    def __post_init__(self) -> None:
        if self.n_vulnerable < 1 or self.initial_infected < 1:
            raise AttackConfigError("epidemic needs >= 1 vulnerable and infected host")
        if self.patch_rate < 0:
            raise AttackConfigError("patch rate must be >= 0")

    @property
    def beta(self) -> float:
        return self.scan_rate / self.address_space

    def curve(self, t_max: float, dt: float = 1.0
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(times, susceptible, infected, recovered) arrays."""
        steps = int(np.ceil(t_max / dt)) + 1
        times = np.arange(steps) * dt
        s = np.empty(steps)
        i = np.empty(steps)
        r = np.empty(steps)
        s[0] = self.n_vulnerable - self.initial_infected
        i[0] = self.initial_infected
        r[0] = 0.0
        for k in range(1, steps):
            infections = self.beta * s[k - 1] * i[k - 1] * dt
            patches = self.patch_rate * i[k - 1] * dt
            infections = min(infections, s[k - 1])
            patches = min(patches, i[k - 1] + infections)
            s[k] = s[k - 1] - infections
            i[k] = i[k - 1] + infections - patches
            r[k] = r[k - 1] + patches
        return times, s, i, r


class WormOutbreak:
    """A stochastic outbreak realisation over a topology's stub ASes.

    Vulnerable hosts are spread over stub ASes (weighted by a Zipf-ish
    skew: "poorly managed access networks" concentrate compromised
    machines).  ``agent_asns_at(t)`` yields the multiset of ASes hosting
    infected machines at time t — plug it straight into attack scenarios to
    grow the agent population over time.
    """

    def __init__(self, topology: Topology, model: EpidemicModel,
                 n_scaled: Optional[int] = None, skew: float = 1.0,
                 seed: int | None = None) -> None:
        self.topology = topology
        self.model = model
        self.n_scaled = int(n_scaled if n_scaled is not None else min(model.n_vulnerable, 2000))
        rng = derive_rng(seed, "worm")
        stubs = topology.stub_ases
        if not stubs:
            raise AttackConfigError("topology has no stub ASes to infect")
        weights = 1.0 / np.arange(1, len(stubs) + 1, dtype=np.float64) ** skew
        weights /= weights.sum()
        order = rng.permutation(len(stubs))
        shuffled = [stubs[i] for i in order]
        self._host_asn = rng.choice(shuffled, size=self.n_scaled, p=weights)
        # infection order: a random permutation — host j becomes infected
        # once the epidemic curve reaches (j+1)/n_scaled of the population.
        self._infection_rank = rng.permutation(self.n_scaled)

    def infected_count_at(self, t: float) -> int:
        """Scaled infected host count at time ``t``."""
        frac = float(self.model.infected_at(t)) / self.model.n_vulnerable
        return int(round(frac * self.n_scaled))

    def agent_asns_at(self, t: float) -> list[int]:
        """ASes (with multiplicity) of hosts infected by time ``t``."""
        k = self.infected_count_at(t)
        infected = self._infection_rank < k
        return [int(a) for a in self._host_asn[infected]]
