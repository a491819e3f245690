"""Declarative, seed-deterministic scenario specifications.

A :class:`ScenarioSpec` is a frozen value object describing one complete
experiment cell: the topology to generate, the attack to place on it, the
defense to deploy against it, and (optionally) a fault schedule to inject
while it runs.  The spec carries *no* live objects — everything an engine
needs is reconstructed from the spec plus its ``seed``, so the same spec
produces byte-identical worlds whether it is built serially, inside a
:func:`~repro.experiments.common.parallel_map` worker, or in a separate
process pool (pinned by tests/scenario/test_determinism.py).

Sub-specs carry a ``seed_offset`` rather than an absolute seed: the
experiments historically seed the topology from ``cfg.seed`` and the
attack from ``cfg.seed + k`` (k in {0..3} depending on the module), and
offsets let one spec be re-run under any base seed without editing its
parts.  ``build()`` performs exactly the constructor calls the hand
written experiments used to make, in the same order, so migrating an
experiment onto a spec never changes its random draws.

Specs serialize to/from plain JSON dicts (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`) for the ``repro scenario run --spec
file.json`` CLI path.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro.errors import FaultConfigError, ReproError
from repro.net.faults import Fault, FaultKind, FaultPlan
from repro.net.topology import Topology, TopologyBuilder
from repro.util.rng import derive_rng

__all__ = [
    "SpecError",
    "TopologySpec",
    "AttackSpec",
    "DefenseSpec",
    "FaultSpec",
    "ScenarioSpec",
]

TOPOLOGY_KINDS = ("hierarchical", "powerlaw", "internet", "line", "star",
                  "tree", "caida")
ATTACK_KINDS = ("direct-spoofed", "direct-unspoofed", "reflector")


class SpecError(ReproError):
    """A scenario spec is malformed or references unknown parts."""


@dataclass(frozen=True)
class TopologySpec:
    """How to generate the AS graph.

    ``kind`` selects the :class:`~repro.net.topology.TopologyBuilder`
    classmethod; the remaining fields are its knobs (unused ones are
    ignored by the other kinds).  The effective topology seed is
    ``base_seed + seed_offset``.
    """

    kind: str = "hierarchical"
    # hierarchical knobs
    n_core: int = 2
    transit_per_core: int = 2
    stub_per_transit: int = 8
    # powerlaw / internet / line / star knobs
    n: int = 100
    m: int = 2
    # tree knobs
    branching: int = 2
    height: int = 3
    prefix_length: int = 24
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise SpecError(
                f"topology kind must be one of {TOPOLOGY_KINDS}, "
                f"got {self.kind!r}")

    def build(self, base_seed: int) -> Topology:
        """Generate the topology — the same call the experiments made."""
        seed = base_seed + self.seed_offset
        if self.kind == "hierarchical":
            return TopologyBuilder.hierarchical(
                self.n_core, self.transit_per_core, self.stub_per_transit,
                prefix_length=self.prefix_length, seed=seed)
        if self.kind == "powerlaw":
            return TopologyBuilder.powerlaw(
                n=self.n, m=self.m, prefix_length=self.prefix_length,
                seed=seed)
        if self.kind == "internet":
            return TopologyBuilder.internet_like(n=self.n, seed=seed)
        if self.kind == "line":
            return TopologyBuilder.line(self.n)
        if self.kind == "star":
            return TopologyBuilder.star(self.n)
        if self.kind == "tree":
            return TopologyBuilder.tree(self.branching, self.height)
        if self.kind == "caida":
            return TopologyBuilder.caida_like(
                n=self.n, seed=seed, prefix_length=self.prefix_length)
        raise SpecError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class AttackSpec:
    """The attack half of a scenario: which attack class, how many of each
    role, and the traffic it sends.  :class:`~repro.attack.scenarios
    .AttackScenario` reads these fields directly; its absolute seed is the
    scenario seed plus ``seed_offset``."""

    kind: str = "reflector"
    n_masters: int = 2
    n_agents: int = 8
    n_reflectors: int = 6
    n_legit_clients: int = 4
    attack_rate_pps: float = 200.0     # per agent
    legit_rate_pps: float = 20.0       # per client
    attack_packet_size: int = 512
    request_size: int = 40
    amplification: float = 3.0         # reflector reply/request byte ratio
    reflector_mode: str = "dns"
    duration: float = 1.0
    attack_start: float = 0.1
    seed_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise SpecError(
                f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if self.n_agents < 1:
            raise SpecError(f"need at least one agent, got {self.n_agents}")
        for name in ("n_masters", "n_reflectors", "n_legit_clients",
                     "attack_rate_pps", "legit_rate_pps", "attack_packet_size",
                     "request_size", "amplification", "duration",
                     "attack_start"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise SpecError(f"{name} must be finite and >= 0, got {value!r}")

    def scaled(self, scale: float) -> "AttackSpec":
        """Scale the population knobs the way experiments scale theirs."""
        def s(n: int) -> int:
            return max(1, int(round(n * scale)))

        return replace(self, n_agents=s(self.n_agents),
                       n_reflectors=s(self.n_reflectors))


@dataclass(frozen=True)
class DefenseSpec:
    """Which defense to deploy, by registry name, plus its parameters.

    ``params`` is a tuple of ``(key, value)`` pairs (kept as a tuple so the
    spec stays hashable/frozen); :meth:`get` reads them like a mapping.
    Defense names resolve against :mod:`repro.scenario.defenses`.
    """

    name: str = "none"
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, name: str, **params: Any) -> "DefenseSpec":
        return cls(name=name, params=tuple(sorted(params.items())))

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class FaultSpec:
    """A declarative fault schedule, drawn into a concrete
    :class:`~repro.net.faults.FaultPlan` under the scenario's seed by
    :meth:`plan`.  ``horizon`` defaults to the engine's run horizon when 0."""

    n_crashes: int = 0
    n_flaps: int = 0
    n_partitions: int = 0
    tcsp_outages: int = 0
    n_loss_windows: int = 0
    loss_rate: float = 0.5
    n_store_crashes: int = 0
    n_shard_crashes: int = 0
    mean_downtime: float = 0.4
    horizon: float = 0.0
    seed_offset: int = 0

    def __post_init__(self) -> None:
        for name in ("n_crashes", "n_flaps", "n_partitions", "tcsp_outages",
                     "n_loss_windows", "n_store_crashes", "n_shard_crashes"):
            value = getattr(self, name)
            if not value >= 0:
                raise FaultConfigError(f"{name} must be >= 0, got {value!r}")
        if not (math.isfinite(self.mean_downtime) and self.mean_downtime > 0):
            raise FaultConfigError(
                f"mean_downtime must be finite and > 0, got {self.mean_downtime!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise FaultConfigError(
                f"loss_rate must lie in [0, 1], got {self.loss_rate!r}")

    def plan(self, base_seed: int, *, horizon: float,
             device_asns: Sequence[int] = (),
             links: Sequence[tuple[int, int]] = (),
             nms_ids: Sequence[str] = (),
             store_replicas: Sequence[int] = ()) -> FaultPlan:
        """Draw the concrete :class:`FaultPlan` for a built world.

        The plan is a deterministic function of ``base_seed + seed_offset``,
        the spec and the target pools.  Fault starts land in
        ``[0.05, 0.55] * horizon`` and downtimes are clipped exponentials,
        so every fault clears well before the horizon — leaving a
        measurable recovery tail (E16's acceptance criterion).  The storage
        and shard families draw last, so leaving them at zero leaves every
        other fault's draws unchanged.
        """
        horizon = self.horizon or horizon
        if horizon <= 0:
            raise FaultConfigError(f"horizon must be > 0, got {horizon}")
        rng = derive_rng(base_seed + self.seed_offset, "fault-plan")
        faults: list[Fault] = []

        def start() -> float:
            return float(rng.uniform(0.05 * horizon, 0.55 * horizon))

        def downtime() -> float:
            d = float(rng.exponential(self.mean_downtime))
            return min(max(d, 0.05), 0.25 * horizon)

        def strike(pool: Sequence, n: int, kind: FaultKind) -> None:
            pool = list(pool)
            if n > 0 and not pool:
                raise FaultConfigError(f"no targets available for {kind.value}")
            for _ in range(n):
                victim = pool[int(rng.integers(0, len(pool)))]
                target = tuple(victim) if isinstance(victim, tuple) else (victim,)
                faults.append(Fault(kind, start(), downtime(), target))

        strike(device_asns, self.n_crashes, FaultKind.DEVICE_CRASH)
        strike(links, self.n_flaps, FaultKind.LINK_FLAP)
        strike(nms_ids, self.n_partitions, FaultKind.NMS_PARTITION)
        for _ in range(self.tcsp_outages):
            faults.append(Fault(FaultKind.TCSP_OUTAGE, start(), downtime()))
        for _ in range(self.n_loss_windows):
            faults.append(Fault(FaultKind.MESSAGE_LOSS, start(), downtime(),
                                param=self.loss_rate))
        strike(store_replicas, self.n_store_crashes,
               FaultKind.STORE_REPLICA_CRASH)
        strike(nms_ids, self.n_shard_crashes, FaultKind.NMS_SHARD_CRASH)
        return FaultPlan(faults)

    @property
    def empty(self) -> bool:
        return not (self.n_crashes or self.n_flaps or self.n_partitions
                    or self.tcsp_outages or self.n_loss_windows
                    or self.n_store_crashes or self.n_shard_crashes)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, declarative experiment cell.

    ``build()`` (see :mod:`repro.scenario.build`) turns the spec into a
    live world; :class:`~repro.scenario.engine.PacketEngine` and
    :class:`~repro.scenario.engine.FluidEngine` both accept the spec via
    ``run(spec) -> MetricSet``.
    """

    name: str = ""
    seed: int = 42
    topology: TopologySpec = field(default_factory=TopologySpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    defense: DefenseSpec = field(default_factory=DefenseSpec)
    faults: Optional[FaultSpec] = None
    settle: float = 0.5
    metrics: tuple[str, ...] = ()       # () = every standard metric
    description: str = ""

    # ------------------------------------------------------------- derivation
    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)

    def with_defense(self, defense: DefenseSpec) -> "ScenarioSpec":
        return replace(self, defense=defense)

    def scaled(self, scale: float) -> "ScenarioSpec":
        if scale == 1.0:
            return self
        return replace(self, attack=self.attack.scaled(scale))

    @property
    def horizon(self) -> float:
        """Time the packet engine runs to: attack end plus settle."""
        return self.attack.attack_start + self.attack.duration + self.settle

    def build(self):
        """Build the live world (see :func:`repro.scenario.build.build`)."""
        from repro.scenario.build import build

        return build(self)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["defense"]["params"] = self.defense.as_dict()
        out["metrics"] = list(self.metrics)
        if self.faults is None:
            del out["faults"]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        try:
            topo = TopologySpec(**data.pop("topology", {}))
            attack = AttackSpec(**data.pop("attack", {}))
            defense_data = dict(data.pop("defense", {}))
            params = defense_data.pop("params", {})
            defense = DefenseSpec.of(defense_data.get("name", "none"),
                                     **params)
            faults_data = data.pop("faults", None)
            faults = FaultSpec(**faults_data) if faults_data else None
            data["metrics"] = tuple(data.get("metrics", ()))
            return cls(topology=topo, attack=attack, defense=defense,
                       faults=faults, **data)
        except TypeError as exc:
            raise SpecError(f"bad scenario spec: {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("spec JSON must be an object")
        return cls.from_dict(data)
