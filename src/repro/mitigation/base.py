"""Common mitigation interface and deployment sampling.

A mitigation deploys onto a set of ASes of a packet-level network (and
optionally exposes a fluid-model filter).  Experiments drive all baselines
— and the paper's traffic control service — through this one interface, so
the E2 effectiveness matrix compares like with like.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from repro.errors import MitigationError
from repro.net.network import Network
from repro.net.topology import Topology
from repro.util.rng import derive_rng

__all__ = ["Mitigation", "deployment_sample"]


class Mitigation(abc.ABC):
    """A deployable DDoS mitigation scheme."""

    #: short identifier used in router filter names and result tables
    name: str = "mitigation"

    def __init__(self) -> None:
        self.deployed_asns: set[int] = set()

    @abc.abstractmethod
    def deploy(self, network: Network, asns: Iterable[int]) -> None:
        """Install the scheme on the given ASes of a packet-level network."""


def deployment_sample(topology: Topology, fraction: float,
                      seed: int | np.random.Generator | None = None) -> set[int]:
    """Sample the ASes that deploy a scheme: ``fraction`` of all ASes,
    drawn uniformly."""
    if not (0.0 <= fraction <= 1.0):
        raise MitigationError(f"deployment fraction must be in [0,1], got {fraction}")
    rng = derive_rng(seed, "deployment")
    eligible = topology.as_numbers
    k = int(round(fraction * len(eligible)))
    if k == 0:
        return set()
    return {eligible[i] for i in rng.choice(len(eligible), size=k, replace=False)}
