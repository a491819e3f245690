"""The spec -> live-world pipeline.

:func:`build` is the single place a :class:`~repro.scenario.spec
.ScenarioSpec` becomes simulator state.  It performs exactly the calls the
hand-written experiments used to make — topology, then network, then
:class:`~repro.attack.scenarios.AttackScenario`, then defense deployment,
then the optional fault plan — in that order, so every random draw happens
in the historical sequence and migrated experiments keep byte-identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attack.scenarios import AttackScenario
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.network import Network
from repro.net.topology import Topology
from repro.scenario.spec import ScenarioSpec

__all__ = ["BuiltScenario", "build"]


@dataclass
class BuiltScenario:
    """A spec plus the live objects it denotes (one engine run's world)."""

    spec: ScenarioSpec
    topology: Topology
    network: Network
    scenario: AttackScenario
    defense: "Optional[object]" = None      # DefenseHandle, set by build()
    fault_plan: Optional[FaultPlan] = None
    injector: Optional[FaultInjector] = None
    extras: dict = field(default_factory=dict)

    @property
    def victim_asn(self) -> int:
        return self.scenario.victim_asn

    @property
    def agent_asns(self) -> set[int]:
        return {a.asn for a in self.scenario.agents}

    @property
    def horizon(self) -> float:
        return self.spec.horizon


def build(spec: ScenarioSpec) -> BuiltScenario:
    """Construct the live world for ``spec`` (deterministic in the seed)."""
    from repro.scenario import defenses

    topology = spec.topology.build(spec.seed)
    network = Network(topology)
    scenario = AttackScenario(network, spec.attack,
                              spec.seed + spec.attack.seed_offset)
    built = BuiltScenario(spec=spec, topology=topology, network=network,
                          scenario=scenario)
    built.defense = defenses.deploy(built, spec.defense)
    if spec.faults is not None and not spec.faults.empty:
        built.fault_plan = spec.faults.plan(
            spec.seed, horizon=spec.horizon,
            device_asns=topology.stub_ases,
            links=[tuple(sorted(e)) for e in topology.graph.edges()])
        built.injector = FaultInjector(built.fault_plan, network,
                                       seed=spec.seed)
        built.injector.arm()
    return built
